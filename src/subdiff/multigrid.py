"""Geometric V-cycle multigrid for the per-step operator B = M + tau^alpha S.

The hierarchy lives on nested uniform meshes K0, 2*K0, ..., K.  Coarse-level
operators are rediscretized; for nested P1 spaces this equals the Galerkin
product P' B P, which is verified (not assumed) when the hierarchy is built.
Residuals are restricted with P', corrections prolonged with P (nodal linear
interpolation), and the coarsest system is solved by a direct factorization.

One V(nu1, nu2) cycle is the unit of work the time stepper counts as one
inner iteration.  Its error propagation contracts in the energy-like norm
|x| = sqrt(x' B x); ``estimate_contraction`` measures the contraction pair
(c0, kappa) empirically from random zero-right-hand-side solves.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, NumericsError
from .fem import FemSystem, Mesh2D, assemble, build_mesh

__all__ = [
    "DampedJacobi",
    "GaussSeidelForward",
    "GridLevel",
    "MgHierarchy",
    "ContractionParams",
    "build_hierarchy",
    "prolongation_matrix",
    "smooth",
    "vcycle",
    "DirectSolver",
    "direct_solve",
    "estimate_contraction",
    "estimate_contraction_of",
]


@dataclass(frozen=True)
class DampedJacobi:
    """Pointwise Jacobi sweep x <- x + omega D^-1 (rhs - B x)."""

    omega: float = 2.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ConfigurationError(f"Jacobi damping must lie in (0, 1], got {self.omega}")

    @property
    def name(self) -> str:
        return "jacobi"


@dataclass(frozen=True)
class GaussSeidelForward:
    """One forward Gauss-Seidel sweep in interior (lexicographic) node order."""

    @property
    def name(self) -> str:
        return "gs"


Smoother = DampedJacobi | GaussSeidelForward


@dataclass(frozen=True)
class ContractionParams:
    """Pair (c0, kappa) such that m inner iterations reduce the weighted-norm
    error by at most c0 * kappa^m."""

    c0: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ConfigurationError(f"kappa must lie in (0, 1), got {self.kappa}")
        if not self.c0 >= 1.0:
            raise ConfigurationError(f"c0 must be >= 1, got {self.c0}")


class GridLevel:
    """Operator bundle for one mesh in the hierarchy."""

    def __init__(self, system: FemSystem, tau: float, alpha: float,
                 needs_gs: bool):
        self.system = system
        self.K = system.mesh.K if system.mesh is not None else None
        self.B = system.system_matrix(tau, alpha)
        self.diag = self.B.diagonal()
        if needs_gs:
            self.upper = sp.triu(self.B, 1).tocsr()
            # lower-triangular part factors without fill under the natural
            # ordering; its solve is an exact forward substitution
            self.lower_solve = spla.splu(
                sp.tril(self.B, 0).tocsc(), permc_spec="NATURAL")
        else:
            self.upper = None
            self.lower_solve = None


def prolongation_matrix(coarse: Mesh2D, fine: Mesh2D) -> sp.csr_matrix:
    """Nodal linear interpolation from coarse interior nodes to fine ones.

    Fine nodes coincide with coarse nodes or sit at midpoints of coarse mesh
    edges (horizontal, vertical, or the cell diagonal); midpoints average the
    two endpoints.  Boundary endpoints contribute zero (Dirichlet data).
    """
    Kc, Kf = coarse.K, fine.K
    if Kf != 2 * Kc:
        raise ConfigurationError(f"meshes are not nested: K={Kf} vs 2*{Kc}")
    nf = (Kf - 1) ** 2

    fi = np.arange(1, Kf)
    fx, fy = np.meshgrid(fi, fi, indexing="xy")
    fx = fx.ravel()
    fy = fy.ravel()
    rows_all = (fy - 1) * (Kf - 1) + (fx - 1)
    cx, rx = np.divmod(fx, 2)
    cy, ry = np.divmod(fy, 2)

    def interior(ix, iy):
        ok = (ix >= 1) & (ix <= Kc - 1) & (iy >= 1) & (iy <= Kc - 1)
        return ok, (iy - 1) * (Kc - 1) + (ix - 1)

    rows, cols, vals = [], [], []

    def add(mask, ix, iy, weight):
        ok, c = interior(ix[mask], iy[mask])
        rows.append(rows_all[mask][ok])
        cols.append(c[ok])
        vals.append(np.full(ok.sum(), weight))

    both_even = (rx == 0) & (ry == 0)
    add(both_even, cx, cy, 1.0)
    x_odd = (rx == 1) & (ry == 0)
    add(x_odd, cx, cy, 0.5)
    add(x_odd, cx + 1, cy, 0.5)
    y_odd = (rx == 0) & (ry == 1)
    add(y_odd, cx, cy, 0.5)
    add(y_odd, cx, cy + 1, 0.5)
    center = (rx == 1) & (ry == 1)  # lies on the cell's bottom-left/top-right diagonal
    add(center, cx, cy, 0.5)
    add(center, cx + 1, cy + 1, 0.5)

    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf, (Kc - 1) ** 2))
    return P.tocsr()


class MgHierarchy:
    """Immutable multigrid hierarchy; build with :func:`build_hierarchy`."""

    def __init__(self, levels, prolongations, coarse_lu, smoother, nu1, nu2,
                 tau, alpha):
        self.levels = levels              # coarse -> fine
        self.prolongations = prolongations  # P[i]: level i -> level i+1
        self.coarse_lu = coarse_lu
        self.smoother = smoother
        self.nu1 = nu1
        self.nu2 = nu2
        self.tau = tau
        self.alpha = alpha

    @property
    def fine(self) -> GridLevel:
        return self.levels[-1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def weighted_norm(self, x: np.ndarray) -> float:
        B = self.fine.B
        return float(np.sqrt(max(x @ (B @ x), 0.0)))


def build_hierarchy(fine: FemSystem, tau: float, alpha: float,
                    smoother: Smoother = GaussSeidelForward(),
                    nu1: int = 1, nu2: int = 1, K0: int = 4) -> MgHierarchy:
    """Build the nested hierarchy under a fine system; verifies coarsening.

    The fine K must equal K0 * 2^L with L >= 1; coarse levels are
    rediscretized on meshes K0, 2*K0, ...  The Galerkin identity
    P' B_fine P = B_coarse is checked level by level to 1e-12 relative.
    """
    if nu1 < 0 or nu2 < 0 or nu1 + nu2 < 1:
        raise ConfigurationError(f"need nu1, nu2 >= 0 with nu1+nu2 >= 1, got {nu1}, {nu2}")
    if not (isinstance(K0, (int, np.integer)) and K0 >= 2 and K0 % 2 == 0):
        raise ConfigurationError(f"coarsest K0 must be an even integer >= 2, got {K0}")
    Ks = [fine.mesh.K]
    while Ks[-1] > K0:
        if Ks[-1] % 2:
            break
        Ks.append(Ks[-1] // 2)
    if Ks[-1] != K0 or len(Ks) < 2:
        raise ConfigurationError(
            f"fine K={fine.mesh.K} is not K0*2^L for K0={K0} with L >= 1")
    Ks.reverse()

    needs_gs = isinstance(smoother, GaussSeidelForward)
    levels = []
    for K in Ks[:-1]:
        system = assemble(build_mesh(K), fine.c_A)
        levels.append(GridLevel(system, tau, alpha, needs_gs))
    levels.append(GridLevel(fine, tau, alpha, needs_gs))

    prolongations = [
        prolongation_matrix(levels[i].system.mesh, levels[i + 1].system.mesh)
        for i in range(len(levels) - 1)
    ]
    for i, P in enumerate(prolongations):
        galerkin = (P.T @ levels[i + 1].B @ P).tocsr()
        dev = abs(galerkin - levels[i].B).max()
        scale = abs(levels[i].B).max()
        if dev > 1e-12 * scale:
            raise NumericsError(
                f"coarsening mismatch at level {i}: deviation {dev / scale:.3e} relative")

    coarse_lu = spla.splu(levels[0].B.tocsc())
    return MgHierarchy(levels, prolongations, coarse_lu, smoother, int(nu1),
                       int(nu2), float(tau), float(alpha))


def smooth(level: GridLevel, x: np.ndarray, rhs: np.ndarray,
           kind: Smoother, sweeps: int = 1) -> np.ndarray:
    """Apply ``sweeps`` smoothing sweeps; returns a new vector."""
    x = np.asarray(x, dtype=float)
    if isinstance(kind, DampedJacobi):
        for _ in range(sweeps):
            x = x + kind.omega * (rhs - level.B @ x) / level.diag
        return x
    if isinstance(kind, GaussSeidelForward):
        if level.lower_solve is None:
            raise ConfigurationError("level was built without Gauss-Seidel support")
        for _ in range(sweeps):
            x = level.lower_solve.solve(rhs - level.upper @ x)
        return x
    raise ConfigurationError(f"unknown smoother {kind!r}")


def vcycle(h: MgHierarchy, x0: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One V(nu1, nu2) cycle for the finest-level system B x = rhs."""
    x0 = np.asarray(x0, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = h.fine.B.shape[0]
    if x0.shape != (n,) or rhs.shape != (n,):
        raise ValueError(
            f"expected vectors of length {n}, got {x0.shape} and {rhs.shape}")
    return _cycle(h, h.n_levels - 1, x0, rhs)


def _cycle(h: MgHierarchy, lvl: int, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if lvl == 0:
        return h.coarse_lu.solve(rhs)
    level = h.levels[lvl]
    x = smooth(level, x, rhs, h.smoother, h.nu1)
    P = h.prolongations[lvl - 1]
    residual = rhs - level.B @ x
    coarse_err = _cycle(h, lvl - 1, np.zeros(P.shape[1]), P.T @ residual)
    x = x + P @ coarse_err
    return smooth(level, x, rhs, h.smoother, h.nu2)


class DirectSolver:
    """Sparse factorization of an SPD matrix with a residual guarantee."""

    REL_TOL = 1e-12

    def __init__(self, B: sp.spmatrix):
        self.B = B.tocsr()
        self._lu = spla.splu(B.tocsc())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        nrhs = np.linalg.norm(rhs)
        if not np.isfinite(nrhs):
            raise NumericsError("direct solve got a non-finite right-hand side")
        if nrhs == 0.0:
            return np.zeros_like(rhs)
        x = self._lu.solve(rhs)
        # written so that a NaN residual fails the test
        if not np.linalg.norm(rhs - self.B @ x) <= self.REL_TOL * nrhs:
            x = x + self._lu.solve(rhs - self.B @ x)  # one refinement step
            if not np.linalg.norm(rhs - self.B @ x) <= self.REL_TOL * nrhs:
                raise NumericsError("direct solve failed to reach residual tolerance")
        return x


def direct_solve(B: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """One-shot exact solve; factor via :class:`DirectSolver` for repeated use."""
    return DirectSolver(B).solve(rhs)


def estimate_contraction(h: MgHierarchy, trials: int = 5, cycles: int = 8,
                         seed: int = 0) -> ContractionParams:
    """Measure (c0, kappa) of the V-cycle in the weighted norm.

    Runs B x = 0 from random starts; kappa is the largest per-cycle norm
    ratio after the first cycle, c0 the largest observed r_m / kappa^m
    (clamped to >= 1).  Raises if the iteration fails to contract.
    """
    dim = h.fine.B.shape[0]
    return estimate_contraction_of(
        lambda x: vcycle(h, x, np.zeros(dim)), h.weighted_norm, dim,
        trials=trials, cycles=cycles, seed=seed)


def estimate_contraction_of(step, norm, dim: int, trials: int = 5,
                            cycles: int = 8, seed: int = 0) -> ContractionParams:
    """Contraction estimate for an arbitrary iteration x -> step(x) toward 0."""
    if trials < 1 or cycles < 2:
        raise ConfigurationError(f"need trials >= 1 and cycles >= 2, got {trials}, {cycles}")
    rng = np.random.default_rng(seed)
    kappa = 0.0
    histories = []
    for _ in range(trials):
        x = rng.standard_normal(dim)
        n0 = norm(x)
        norms = [n0]
        for m in range(1, cycles + 1):
            x = step(x)
            norms.append(norm(x))
        histories.append(norms)
        floor = 1e-12 * n0
        for m in range(2, cycles + 1):
            if norms[m - 1] > floor:  # ratios below the floor are rounding noise
                kappa = max(kappa, norms[m] / norms[m - 1])
    if kappa >= 1.0:
        raise NumericsError(
            f"iteration is not contracting: measured kappa = {kappa:.4f}")
    kappa = max(kappa, 1e-12)
    c0 = 1.0
    for norms in histories:
        n0 = norms[0]
        if n0 == 0.0:
            continue
        for m in range(1, cycles + 1):
            if norms[m] > 1e-12 * n0:  # converged iterates carry no information
                c0 = max(c0, (norms[m] / n0) / kappa ** m)
    return ContractionParams(c0=c0, kappa=kappa)
