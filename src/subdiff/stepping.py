"""Backward Euler CQ time stepping, exact and with inexact inner solves.

Each step of the fully discrete scheme asks for the solution of

    (M + tau^alpha S) u = tau^alpha F^n + M (s_n U^0 - sum_{j=1..n} b_j U^{n-j}),

with b_j the CQ weights and s_n their partial sum.  ``run_exact`` solves every
step with a direct factorization; ``run_iis`` solves steps beyond a short
exact startup approximately, starting from the extrapolated guess
2 U^{n-1} - U^{n-2} and applying a scheduled number M_n of multigrid V-cycles.
History convolutions use the exact weights over the stored trajectory, O(N^2)
flops in all, evaluated in lag blocks (``cq.history_sums``): one GEMM per
block of 128 steps reads the stored trajectory, instead of one GEMV per step.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cq import TimeGrid, WeightTable, gen_weights, history_sums, lag_block
from .errors import ConfigurationError, NumericsError
from .fem import FemSystem, l2_norm, l2_project, load_vector, ritz_project
from .multigrid import ContractionParams, DirectSolver, MgHierarchy, vcycle

__all__ = [
    "ZeroInit",
    "L2Projected",
    "RitzProjected",
    "PointwiseSource",
    "SeparableSource",
    "LoadSource",
    "ProblemSpec",
    "ExactSchedule",
    "FixedIterations",
    "LogSchedule",
    "TheorySmoothData",
    "TheoryNonsmoothData",
    "StepRecord",
    "Trajectory",
    "ErrorReport",
    "schedule_iters",
    "step_rhs",
    "run_exact",
    "run_iis",
    "error_report",
    "write_trajectory_csv",
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


@dataclass(frozen=True)
class RitzProjected:
    """Start from the energy projection of v (the smooth-data choice)."""

    av: object = None
    grad: object = None

    def vector(self, sys: FemSystem) -> np.ndarray:
        return ritz_project(sys, av=self.av, grad=self.grad)


@dataclass(frozen=True)
class PointwiseSource:
    """Source f(x, y, t), integrated by quadrature at every step."""

    f: object

    def load_at(self, sys: FemSystem, t: float) -> np.ndarray:
        return load_vector(sys.mesh, lambda x, y: self.f(x, y, t))


class SeparableSource:
    """Source time_fn(t) * space_fn(x, y); the spatial load is assembled once."""

    def __init__(self, time_fn, space_fn):
        self.time_fn = time_fn
        self.space_fn = space_fn
        self._space_load = None

    def load_at(self, sys: FemSystem, t: float) -> np.ndarray:
        if self._space_load is None:
            self._space_load = load_vector(sys.mesh, self.space_fn)
        return self.time_fn(t) * self._space_load


@dataclass(frozen=True)
class LoadSource:
    """Source given directly as a load vector t -> F(t); used by scalar
    surrogate systems where no mesh quadrature applies."""

    fn: object

    def load_at(self, sys: FemSystem, t: float) -> np.ndarray:
        return np.asarray(self.fn(t), dtype=float)


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

def _check_startup(k):
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ConfigurationError(f"exact_startup_steps must be an integer >= 1, got {k}")


@dataclass(frozen=True)
class ExactSchedule:
    """Every step solved by the direct solver (the M_n = infinity rows)."""

    exact_startup_steps: int = 2

    def __post_init__(self):
        _check_startup(self.exact_startup_steps)


@dataclass(frozen=True)
class FixedIterations:
    """The same number of V-cycles at every step."""

    m: int
    exact_startup_steps: int = 2

    def __post_init__(self):
        _check_startup(self.exact_startup_steps)
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ConfigurationError(f"iteration count must be >= 1, got {self.m}")


@dataclass(frozen=True)
class LogSchedule:
    """M_n = a + b * log2(1/t_n), rounded up, at least 1.

    More iterations at early times; the log factor is inert once t_n >= 1.
    """

    a: int
    b: int
    exact_startup_steps: int = 2

    def __post_init__(self):
        _check_startup(self.exact_startup_steps)
        ok = all(isinstance(v, (int, np.integer)) and v >= 0 for v in (self.a, self.b))
        if not ok or self.a + self.b < 1:
            raise ConfigurationError(
                f"need integers a, b >= 0 with a+b >= 1, got a={self.a}, b={self.b}")


def _check_theory(delta, params):
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    if not isinstance(params, ContractionParams):
        raise ConfigurationError("theory schedules need measured ContractionParams")


@dataclass(frozen=True)
class TheorySmoothData:
    """Smallest M_n with c0 kappa^M_n <= delta * min(t_n^(alpha/2), 1) / ln(1 + t_n/tau).

    The demand matching the error bound for energy-projected smooth initial
    data; iteration counts decrease as t_n grows.
    """

    delta: float
    params: ContractionParams
    exact_startup_steps: int = 2

    def __post_init__(self):
        _check_startup(self.exact_startup_steps)
        _check_theory(self.delta, self.params)

    def target(self, t_n: float, ell_n: float, alpha: float) -> float:
        return self.delta * min(t_n ** (alpha / 2.0), 1.0) / ell_n


@dataclass(frozen=True)
class TheoryNonsmoothData:
    """Smallest M_n with c0 kappa^M_n <= delta * min(t_n, 1) / ln(1 + t_n/tau).

    The stronger early-time demand for L2-projected (rough) initial data.
    """

    delta: float
    params: ContractionParams
    exact_startup_steps: int = 2

    def __post_init__(self):
        _check_startup(self.exact_startup_steps)
        _check_theory(self.delta, self.params)

    def target(self, t_n: float, ell_n: float, alpha: float) -> float:
        return self.delta * min(t_n, 1.0) / ell_n


def schedule_iters(schedule, n: int, t_n: float, tau: float, alpha: float) -> int:
    """Inner iteration count M_n demanded by ``schedule`` at step n."""
    if isinstance(schedule, ExactSchedule):
        raise ConfigurationError("the exact schedule has no finite iteration count")
    if isinstance(schedule, FixedIterations):
        return schedule.m
    if isinstance(schedule, LogSchedule):
        m = schedule.a + math.ceil(schedule.b * math.log2(max(1.0, 1.0 / t_n)))
        return min(max(1, m), MAX_INNER_ITERATIONS)
    if isinstance(schedule, (TheorySmoothData, TheoryNonsmoothData)):
        c0, kappa = schedule.params.c0, schedule.params.kappa
        ell_n = math.log(1.0 + t_n / tau)
        target = schedule.target(t_n, ell_n, alpha)
        if c0 <= target:
            return 1
        # smallest M with c0 kappa^M <= target
        m = math.ceil(math.log(target / c0) / math.log(kappa))
        m = max(1, m)
        if m > MAX_INNER_ITERATIONS:
            log.warning("schedule demanded %d iterations at step %d; clamped to %d",
                        m, n, MAX_INNER_ITERATIONS)
            m = MAX_INNER_ITERATIONS
        return m
    raise ConfigurationError(f"unknown schedule {schedule!r}")


# ---------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics; ``iterations`` is None for direct solves."""

    n: int
    t: float
    exact: bool
    iterations: int | None
    correction: float
    wall_time: float
    corrections: tuple = ()

    @property
    def label(self) -> str:
        return "exact" if self.exact else str(self.iterations)


@dataclass(frozen=True)
class Trajectory:
    """Nodal solution vectors U^0..U^N plus per-step records."""

    grid: TimeGrid
    U: np.ndarray
    records: tuple

    @property
    def final(self) -> np.ndarray:
        return self.U[-1]


def step_rhs(spec: ProblemSpec, weights: WeightTable, history: np.ndarray,
             load: np.ndarray | None) -> np.ndarray:
    """Right-hand side of the step-n system given history U^0..U^{n-1}.

    ``load`` is the step's load vector F^n (None for a zero source).
    """
    history = np.atleast_2d(np.asarray(history, dtype=float))
    n = history.shape[0]
    if n < 1:
        raise ValueError("history must contain at least U^0")
    if len(weights) < n + 1:
        raise ValueError(
            f"weight table of length {len(weights)} too short for step {n}")
    if history.shape[1] != spec.sys.dim:
        raise ValueError(
            f"history vectors of length {history.shape[1]} do not match system "
            f"dimension {spec.sys.dim}")
    hist = lag_block(weights, history, n, 1)[0]
    return _step_rhs(spec.sys.M, weights, history[0], hist, n,
                     spec.grid.tau ** spec.alpha, load)


def _step_rhs(M, weights: WeightTable, U0: np.ndarray, hist: np.ndarray, n: int,
              taua: float, load: np.ndarray | None) -> np.ndarray:
    """Step-n right-hand side from the history sum sum_{j=1..n} b_j U^{n-j}."""
    r = M @ (weights.partial_sums[n] * U0 - hist)
    if load is not None:
        r = r + taua * load
    return r


def run_exact(spec: ProblemSpec) -> Trajectory:
    """Time stepping with every step solved by the direct solver."""
    return _run(spec, ExactSchedule(), None)


def run_iis(spec: ProblemSpec, schedule, hierarchy: MgHierarchy | None,
            record_corrections: bool = False) -> Trajectory:
    """Time stepping with scheduled inexact inner solves.

    Steps up to ``schedule.exact_startup_steps`` use the direct solver; later
    steps start from the extrapolated guess and apply M_n V-cycles.  The
    hierarchy must have been built for the same system and step size.
    """
    if not isinstance(schedule, ExactSchedule):
        if hierarchy is None:
            raise ConfigurationError("iterative schedules need a multigrid hierarchy")
        if (hierarchy.fine.K != spec.sys.mesh.K
                or hierarchy.fine.system.c_A != spec.sys.c_A):
            raise ConfigurationError("hierarchy was built for a different system")
        if not (math.isclose(hierarchy.tau, spec.grid.tau, rel_tol=1e-12)
                and hierarchy.alpha == spec.alpha):
            raise ConfigurationError(
                "hierarchy was built for different tau or alpha than the problem")
    return _run(spec, schedule, hierarchy, record_corrections)


def _run(spec: ProblemSpec, schedule, hierarchy, record_corrections=False) -> Trajectory:
    grid = spec.grid
    N, tau = grid.N, grid.tau
    taua = tau ** spec.alpha
    sys = spec.sys
    weights = gen_weights(spec.alpha, N)
    exact_all = isinstance(schedule, ExactSchedule)
    startup = schedule.exact_startup_steps

    B = sys.system_matrix(tau, spec.alpha)
    direct = DirectSolver(B)

    U = np.zeros((N + 1, sys.dim))
    U[0] = spec.initial.vector(sys)
    records = []
    histories = history_sums(weights, U, N)
    for n in range(1, N + 1):
        t0 = time.perf_counter()
        t_n = n * tau
        load = spec.source.load_at(sys, t_n) if spec.source is not None else None
        r = _step_rhs(sys.M, weights, U[0], next(histories), n, taua, load)
        if exact_all or n <= startup:
            U[n] = direct.solve(r)
            records.append(StepRecord(n, t_n, True, None, 0.0,
                                      time.perf_counter() - t0))
            continue
        m_n = schedule_iters(schedule, n, t_n, tau, spec.alpha)
        if m_n < 1:
            raise ConfigurationError(
                f"schedule produced no iterations at step {n} after startup")
        x = 2.0 * U[n - 1] - U[n - 2]
        corrections = []
        for m in range(m_n):
            x_next = vcycle(hierarchy, x, r)
            corrections.append(hierarchy.weighted_norm(x_next - x))
            x = x_next
        if not math.isfinite(corrections[-1]):
            raise NumericsError(
                f"inner iteration produced a non-finite correction at step {n}")
        if corrections[-1] > 10.0 * corrections[0] and corrections[0] > 0.0:
            raise NumericsError(
                f"inner iteration diverged at step {n}: correction grew from "
                f"{corrections[0]:.3e} to {corrections[-1]:.3e}")
        U[n] = x
        records.append(StepRecord(
            n, t_n, False, m_n, corrections[-1], time.perf_counter() - t0,
            tuple(corrections) if record_corrections else ()))
    return Trajectory(grid=grid, U=U, records=tuple(records))


# ---------------------------------------------------------------------------
# error reporting

@dataclass(frozen=True)
class ErrorReport:
    """Relative L2 errors against a reference: final-time value plus any
    intermediate checkpoints (t, error) where the grids align."""

    final: float
    checkpoints: tuple = ()


def error_report(traj: Trajectory, reference, sys: FemSystem) -> ErrorReport:
    """Relative L2 error of a trajectory against a reference.

    ``reference`` is either a nodal vector at the final time or a finer
    trajectory on the same mesh whose step count is a multiple of the
    trajectory's (checkpoints are then reported at every shared time).
    """
    if isinstance(reference, Trajectory):
        ref_final = reference.final
        checkpoints = []
        if (reference.grid.N % traj.grid.N == 0
                and math.isclose(reference.grid.T, traj.grid.T, rel_tol=1e-12)):
            stride = reference.grid.N // traj.grid.N
            for n in range(1, traj.grid.N + 1):
                ref_n = reference.U[n * stride]
                denom = l2_norm(sys, ref_n)
                if denom > 0.0:
                    err = l2_norm(sys, traj.U[n] - ref_n) / denom
                    checkpoints.append((n * traj.grid.tau, err))
    else:
        ref_final = np.asarray(reference, dtype=float)
        checkpoints = []
    if ref_final.shape != (sys.dim,):
        raise ValueError(
            f"reference of shape {ref_final.shape} does not match dimension {sys.dim}")
    denom = l2_norm(sys, ref_final)
    if denom == 0.0:
        raise ValueError("reference has zero norm; relative error is undefined")
    final = l2_norm(sys, traj.final - ref_final) / denom
    return ErrorReport(final=final, checkpoints=tuple(checkpoints))


def write_trajectory_csv(traj: Trajectory, sys: FemSystem, path) -> None:
    """Checkpoint export: n, t_n, M_n, l2_norm, weighted_correction."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,t_n,M_n,l2_norm,weighted_correction\n")
        for rec in traj.records:
            fh.write(f"{rec.n},{rec.t:.9g},{rec.label},"
                     f"{l2_norm(sys, traj.U[rec.n]):.6e},{rec.correction:.6e}\n")
