"""Backward Euler CQ time stepping, exact and with inexact inner solves.

Each step of the fully discrete scheme asks for the solution of

    (M + tau^alpha S) u = tau^alpha F^n + M (s_n U^0 - sum_{j=1..n} b_j U^{n-j}),

with b_j the CQ weights and s_n their partial sum.  ``run_exact`` solves every
step with a direct factorization; ``run_iis`` solves steps beyond a short
exact startup approximately, starting from the extrapolated guess
2 U^{n-1} - U^{n-2} and applying a scheduled number M_n of multigrid V-cycles.
The history sum comes from the streamed ``cq.History``: exact weights for the
lags within the current block of 48 steps, a sum-of-exponentials fit for the
older ones.  A run keeps U^0, the extrapolation pair U^{n-1}, U^{n-2}, one
block buffer and, from step 49 on, the fit's modes, never the whole
trajectory; it returns the final vector and the per-step records.  Its one
band factor is B's (an L2 projection of U^0 runs conjugate gradients on M,
before B is factored), and ``run_iis`` frees it after the exact startup
steps, so with at most 48 startup steps the factor is gone before the
modes are made.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .cq import History, TimeGrid, gen_weights
from .errors import ConfigurationError, NumericsError, is_int
from .fem import FemSystem, _to_dia, l2_norm, l2_project, load_vector
from .multigrid import DirectSolver, MgHierarchy, vcycle

__all__ = [
    "ZeroInit",
    "L2Projected",
    "SeparableSource",
    "ProblemSpec",
    "Schedule",
    "ExactSchedule",
    "LogSchedule",
    "TheorySmoothData",
    "TheoryNonsmoothData",
    "StepRecord",
    "Trajectory",
    "schedule_iters",
    "run_exact",
    "run_iis",
    "error_report",
]

log = logging.getLogger(__name__)

MAX_INNER_ITERATIONS = 200


# ---------------------------------------------------------------------------
# initial data and source terms

@dataclass(frozen=True)
class ZeroInit:
    def vector(self, sys: FemSystem) -> np.ndarray:
        return np.zeros(sys.dim)


@dataclass(frozen=True)
class L2Projected:
    """Start from the mass-side projection of v (the nonsmooth-data choice)."""

    v: object

    def vector(self, sys: FemSystem) -> np.ndarray:
        return l2_project(sys, self.v)


class SeparableSource:
    """Source time_fn(t) * space_fn(x, y); the spatial load is assembled once
    per mesh."""

    def __init__(self, time_fn, space_fn):
        self.time_fn = time_fn
        self.space_fn = space_fn
        self._cache = None  # (mesh, spatial load on it)

    def load_at(self, sys: FemSystem, t: float) -> np.ndarray:
        if self._cache is None or self._cache[0] is not sys.mesh:
            self._cache = (sys.mesh, load_vector(sys.mesh, self.space_fn))
        return self.time_fn(t) * self._cache[1]


@dataclass(frozen=True)
class ProblemSpec:
    """Everything a trajectory run needs: order, grid, space discretization,
    initial data, and source (None for the homogeneous problem)."""

    alpha: float
    grid: TimeGrid
    sys: FemSystem
    initial: object = ZeroInit()
    source: object = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"model order must lie in (0, 1), got {self.alpha}")


# ---------------------------------------------------------------------------
# iteration schedules

@dataclass(frozen=True, kw_only=True)
class Schedule:
    """Base of the iteration schedules: steps 1..exact_startup_steps are
    solved by the direct solver, later ones by ``iters`` V-cycles."""

    exact_startup_steps: int = 2

    def __post_init__(self):
        k = self.exact_startup_steps
        if not (is_int(k) and k >= 1):
            raise ConfigurationError(f"exact_startup_steps must be an integer >= 1, got {k}")

    def exact(self, n: int) -> bool:
        """Whether step n is solved by the direct solver."""
        return n <= self.exact_startup_steps


@dataclass(frozen=True)
class ExactSchedule(Schedule):
    """Every step solved by the direct solver (the M_n = infinity rows)."""

    def exact(self, n: int) -> bool:
        return True


@dataclass(frozen=True)
class LogSchedule(Schedule):
    """M_n = a + b * log2(1/t_n), rounded up, at least 1.

    More iterations at early times; the log factor is inert once t_n >= 1.
    With the default b = 0 it is the fixed rule, a V-cycles at every step
    (the ``fixed:m`` rows).
    """

    a: int
    b: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not all(is_int(v) and v >= 0 for v in (self.a, self.b)) or self.a + self.b < 1:
            raise ConfigurationError(
                f"need integers a, b >= 0 with a+b >= 1, got a={self.a}, b={self.b}")

    def iters(self, t_n: float, tau: float, alpha: float, h: MgHierarchy) -> int:
        return max(1, self.a + math.ceil(self.b * math.log2(max(1.0, 1.0 / t_n))))


@dataclass(frozen=True)
class _TheorySchedule(Schedule):
    """Smallest M_n with kappa^M_n <= target(t_n, ell_n, alpha), where
    ell_n = ln(1 + t_n/tau) and kappa = |E|_B is the hierarchy's ``kappa``."""

    delta: float

    def __post_init__(self):
        super().__post_init__()
        if not (isinstance(self.delta, (int, float)) and 0.0 < self.delta < 1.0):
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")

    def iters(self, t_n: float, tau: float, alpha: float, h: MgHierarchy) -> int:
        target = self.target(t_n, math.log(1.0 + t_n / tau), alpha)
        return max(1, math.ceil(math.log(target) / math.log(h.kappa)))


@dataclass(frozen=True)
class TheorySmoothData(_TheorySchedule):
    """Smallest M_n with kappa^M_n <= delta * min(t_n^(alpha/2), 1) / ln(1 + t_n/tau).

    The demand matching the error bound for energy-projected smooth initial
    data.  It is weaker than the nonsmooth demand at early times, but the
    counts need not fall as t_n grows: at small alpha, ln(1 + t_n/tau) grows
    faster than t_n^(alpha/2).
    """

    def target(self, t_n: float, ell_n: float, alpha: float) -> float:
        return self.delta * min(t_n ** (alpha / 2.0), 1.0) / ell_n


@dataclass(frozen=True)
class TheoryNonsmoothData(_TheorySchedule):
    """Smallest M_n with kappa^M_n <= delta * min(t_n, 1) / ln(1 + t_n/tau).

    The stronger early-time demand for L2-projected (rough) initial data.
    """

    def target(self, t_n: float, ell_n: float, alpha: float) -> float:
        return self.delta * min(t_n, 1.0) / ell_n


def schedule_iters(schedule: Schedule, n: int, t_n: float, tau: float,
                   alpha: float, h: MgHierarchy) -> int:
    """Inner iteration count M_n demanded by ``schedule`` at step n with the
    hierarchy h, clamped to MAX_INNER_ITERATIONS with a warning."""
    m = schedule.iters(t_n, tau, alpha, h)
    if m > MAX_INNER_ITERATIONS:
        log.warning("schedule demanded %d iterations at step %d; clamped to %d",
                    m, n, MAX_INNER_ITERATIONS)
        m = MAX_INNER_ITERATIONS
    return m


# ---------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics; ``iterations`` is None for direct solves."""

    n: int
    t: float
    exact: bool
    iterations: int | None
    wall_time: float
    corrections: tuple = ()


@dataclass(frozen=True)
class Trajectory:
    """The nodal solution vector U^N at the final time plus per-step records."""

    final: np.ndarray
    records: tuple


def run_exact(spec: ProblemSpec) -> Trajectory:
    """Time stepping with every step solved by the direct solver."""
    return run_iis(spec, ExactSchedule(), None)


def run_iis(spec: ProblemSpec, schedule: Schedule,
            hierarchy: MgHierarchy | None) -> Trajectory:
    """Time stepping with scheduled inexact inner solves.

    Steps up to ``schedule.exact_startup_steps`` use the direct solver; later
    steps start from the extrapolated guess and apply M_n V-cycles.  The
    hierarchy's fine operator must equal B = M + tau^alpha S to 1e-12 of max |B|.
    """
    N, tau = spec.grid.N, spec.grid.tau
    taua = tau ** spec.alpha
    sys = spec.sys
    B = _to_dia(sys.system_matrix(tau, spec.alpha))  # the direct solver's own copy
    if not schedule.exact(N):
        if hierarchy is None:
            raise ConfigurationError("iterative schedules need a multigrid hierarchy")
        if not _same_operator(hierarchy.fine.B, B):
            raise ConfigurationError("hierarchy was built for a different step operator")
    weights = gen_weights(spec.alpha, N)
    M = _to_dia(sys.M)
    u0 = spec.initial.vector(sys)  # before B is factored: its arrays are freed first
    direct = DirectSolver(B)
    del B  # the factor keeps it for the residual check

    u = u_prev = u0  # U^{n-1} and U^{n-2}
    records = []
    history = History(weights, N, sys.dim)
    for n in range(1, N + 1):
        t0 = time.perf_counter()
        t_n = n * tau
        rhs = M @ (weights.partial_sums[n] * u0 - history.next(u))
        if spec.source is not None:
            rhs = rhs + taua * spec.source.load_at(sys, t_n)
        if schedule.exact(n):
            u_prev, u = u, direct.solve(rhs)
            if not schedule.exact(n + 1):
                direct = None  # no later step needs the factor; free it
            records.append(StepRecord(n, t_n, True, None, time.perf_counter() - t0))
            continue
        m_n = schedule_iters(schedule, n, t_n, tau, spec.alpha, hierarchy)
        x = 2.0 * u - u_prev
        r = rhs - hierarchy.fine.B @ x  # each cycle returns its iterate's residual
        corrections = []
        for m in range(m_n):
            x_next, r_next = vcycle(hierarchy, x, rhs, r)
            # B (x_next - x) = r - r_next: the correction's norm takes no product
            corrections.append(hierarchy.weighted_norm(x_next - x, r - r_next))
            x, r = x_next, r_next
        if not math.isfinite(corrections[-1]):
            raise NumericsError(
                f"inner iteration produced a non-finite correction at step {n}")
        if corrections[-1] > 10.0 * corrections[0] and corrections[0] > 0.0:
            raise NumericsError(
                f"inner iteration diverged at step {n}: correction grew from "
                f"{corrections[0]:.3e} to {corrections[-1]:.3e}")
        u_prev, u = u, x
        records.append(StepRecord(
            n, t_n, False, m_n, time.perf_counter() - t0,
            tuple(corrections)))
    return Trajectory(final=u, records=tuple(records))


def _same_operator(A, B) -> bool:
    """Whether A and B have one shape and agree entrywise to 1e-12 of max |B|,
    compared diagonal by diagonal: no sparse difference is formed."""
    if A.shape != B.shape:
        return False
    offsets = np.union1d(A.offsets, B.offsets)
    gap = max(np.abs(A.diagonal(k) - B.diagonal(k)).max() for k in offsets)
    return bool(gap <= 1e-12 * max(np.abs(B.diagonal(k)).max() for k in offsets))


# ---------------------------------------------------------------------------
# error reporting

def error_report(traj: Trajectory, reference, sys: FemSystem) -> float:
    """Relative L2 error of a trajectory's final vector against a nodal
    reference vector at the final time."""
    ref_final = np.asarray(reference, dtype=float)
    if ref_final.shape != (sys.dim,) or not np.isfinite(ref_final).all():
        raise ValueError(f"reference of shape {ref_final.shape} must be finite and match "
                         f"dimension {sys.dim}")
    denom = l2_norm(sys, ref_final)
    if denom == 0.0:
        raise ValueError("reference has zero norm; relative error is undefined")
    return l2_norm(sys, traj.final - ref_final) / denom
