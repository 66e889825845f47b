"""Geometric V-cycle multigrid for the per-step operator B = M + tau^alpha S.

The hierarchy lives on nested uniform meshes K0, 2*K0, ..., K.  Each coarse
operator is the Galerkin product P' B P of the level above it; on nested P1
spaces that is the coarse mesh's own M + tau^alpha S, which the tests check by
re-assembly.  Residuals are restricted with P', corrections prolonged with P
(nodal linear interpolation), and the coarsest system is solved by a direct
factorization.  Each level keeps its operator in DIA storage only and
sweeps with a factor of its transposed lower triangle; the coarse levels
start from a zero guess that no sweep multiplies.

A cycle carries its iterate's residual r: its first sweep from x is x + S r,
the zero-guess sweep on B e = r added to x, which needs no product, and each
smoother's ``residual`` gives what its sweep left, for forward GS
U (x_in - x_out) with U = triu(B, 1).  With GS V(1,1), a cycle and the
caller's correction norm (B d = r - r_next) make 9 diagonal passes on the
finest level and 6 on each level above the coarsest, against 20 and 10 when
each residual and the norm multiply by B.  The cycle's products call scipy's
sparse kernels directly (``_product``).

One V(nu1, nu2) cycle is the unit of work the time stepper counts as one
inner iteration.  Its error propagation E contracts in the energy-like norm
|x| = sqrt(x' B x): m cycles shrink any error by at most kappa^m, where kappa =
|E|_B is ``MgHierarchy.kappa``, computed from the adjoint cycle on first use.
"""

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .errors import ConfigurationError, NumericsError, is_int
from .fem import Factor, FemSystem, _to_dia

__all__ = [
    "DampedJacobi",
    "GaussSeidelForward",
    "GridLevel",
    "MgHierarchy",
    "build_hierarchy",
    "prolongation_matrix",
    "level_sizes",
    "check_cycle",
    "smooth",
    "vcycle",
    "DirectSolver",
]

KAPPA_SEED = 0  # seeds the Arnoldi start vector of MgHierarchy.kappa


def _product(A: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a DIA, CSR or CSC float matrix A, bit for bit, by the kernel
    that scipy's ``@`` calls.  Its dispatch and checks take 2-3 us a product,
    more than the product on the coarse levels; at K=64 a GS V(1,1) cycle
    makes 17."""
    m, n = A.shape
    if x.shape != (n,):  # the kernel reads n entries of x unchecked
        raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
    y = np.zeros(m)
    if A.format == "dia":
        _sparsetools.dia_matvec(m, n, len(A.offsets), A.data.shape[1], A.offsets,
                                A.data, x, y)
    elif A.format == "csc":
        _sparsetools.csc_matvec(m, n, A.indptr, A.indices, A.data, x, y)
    else:
        _sparsetools.csr_matvec(m, n, A.indptr, A.indices, A.data, x, y)
    return y


class _Sweep:
    """Base of the sweeps whose residual takes the product with B."""

    def residual(self, level, rhs: np.ndarray, x_in: np.ndarray | None,
                 x_out: np.ndarray) -> np.ndarray:
        """rhs - B x_out for x_out = sweep(level, x_in, rhs), by the product."""
        return rhs - _product(level.B, x_out)


@dataclass(frozen=True)
class DampedJacobi(_Sweep):
    """Pointwise Jacobi sweep x <- x + omega D^-1 (rhs - B x)."""

    omega: float = 2.0 / 3.0

    name = "jacobi"

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ConfigurationError(f"Jacobi damping must lie in (0, 1], got {self.omega}")

    def sweep(self, level, x: np.ndarray | None, rhs: np.ndarray) -> np.ndarray:
        if x is None:  # the zero guess
            return self.omega * rhs / level.diag
        return x + self.omega * (rhs - _product(level.B, x)) / level.diag

    def adjoint(self):
        """The B-adjoint sweep: a damped Jacobi sweep is B-self-adjoint."""
        return self


@dataclass(frozen=True)
class GaussSeidelForward:
    """One forward Gauss-Seidel sweep in interior (lexicographic) node order."""

    name = "gs"

    def sweep(self, level, x: np.ndarray | None, rhs: np.ndarray) -> np.ndarray:
        c = rhs if x is None else rhs - _product(level.upper, x)
        return level.lower_t.solve(c, trans="T")

    def residual(self, level, rhs: np.ndarray, x_in: np.ndarray | None,
                 x_out: np.ndarray) -> np.ndarray:
        """rhs - B x_out = U (x_in - x_out), as the sweep solved L x_out = rhs - U x_in."""
        if x_in is None:
            return -_product(level.upper, x_out)
        return _product(level.upper, x_in - x_out)

    def adjoint(self):
        """The B-adjoint sweep, backward: x <- x + L^-T (rhs - B x), L = tril(B)."""
        return _GaussSeidelBackward()


class _GaussSeidelBackward(_Sweep):
    """One backward Gauss-Seidel sweep; it reuses the forward sweep's factor."""

    def sweep(self, level, x: np.ndarray | None, rhs: np.ndarray) -> np.ndarray:
        if x is None:
            return level.lower_t.solve(rhs)
        return x + level.lower_t.solve(rhs - _product(level.B, x))


Smoother = DampedJacobi | GaussSeidelForward


class GridLevel:
    """Operator bundle for one mesh in the hierarchy."""

    def __init__(self, B: sp.csr_matrix):
        # the level's one copy of B, in DIA storage with ascending offsets:
        # the strict upper triangle views its trailing rows and the diagonal
        # is its offset-0 row
        self.B = _to_dia(B)
        d = int(np.searchsorted(self.B.offsets, 0))
        self.diag = self.B.data[d]
        self.upper = sp.dia_matrix((self.B.data[d + 1:], self.B.offsets[d + 1:]),
                                   shape=B.shape)
        # L = tril(B) read as CSC is L', upper triangular: it factors without
        # fill or pivoting under the natural ordering, solve(c, trans="T") is
        # plain forward substitution with L and solve(c) backward with L'
        self.lower_t = spla.splu(sp.tril(B, 0, format="csr").T, permc_spec="NATURAL",
                                 diag_pivot_thresh=0.0)


def prolongation_matrix(Kc: int) -> sp.csr_matrix:
    """Nodal linear interpolation from the interior nodes of the mesh Kc to
    those of the mesh 2*Kc.

    In 1-D, fine node 2j+1+o (o in {-1, 0, 1}) takes weight p = 1 - |o|/2
    and signed offset q = o from coarse node j.  kron(p, p) is bilinear
    interpolation; adding kron(q, q)/4 moves each cell midpoint's weight onto
    the ends of the cell's bottom-left/top-right diagonal, which gives the P1
    interpolant on this triangulation.  Boundary endpoints contribute zero
    (Dirichlet data).
    """
    j = np.arange(Kc - 1)
    ij = (np.add.outer(2 * j, [0, 1, 2]).ravel(), np.repeat(j, 3))
    shape = (2 * Kc - 1, Kc - 1)
    p = sp.coo_matrix((np.tile([0.5, 1.0, 0.5], Kc - 1), ij), shape=shape)
    q = sp.coo_matrix((np.tile([-1.0, 0.0, 1.0], Kc - 1), ij), shape=shape)
    P = (sp.kron(p, p) + sp.kron(q, q) / 4.0).tocsr()
    P.eliminate_zeros()
    return P


class MgHierarchy:
    """Immutable multigrid hierarchy; build with :func:`build_hierarchy`."""

    def __init__(self, levels, restrictions, coarse_lu, smoother, nu1, nu2):
        self.levels = levels  # coarse -> fine
        # R[i] = P[i]' as CSR, level i+1 -> level i: bitwise P.T @ r, in half
        # the time of the CSC view P.T.  P[i] is the CSC view R[i].T, on R's
        # arrays: its csc_matvec sums each row of P in the column order of
        # P's CSR product, so it is that product bit for bit, as fast
        self.restrictions = restrictions
        self.prolongations = [R.T for R in restrictions]
        self.coarse_lu = coarse_lu
        self.smoother = smoother
        self.nu1 = nu1
        self.nu2 = nu2

    @property
    def fine(self) -> GridLevel:
        return self.levels[-1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def weighted_norm(self, x: np.ndarray, Bx: np.ndarray | None = None) -> float:
        """sqrt(x' B x); a caller that knows B x passes it as Bx."""
        if Bx is None:
            Bx = self.fine.B @ x
        return float(np.sqrt(max(x @ Bx, 0.0)))

    @cached_property
    def kappa(self) -> float:
        """kappa = |E|_B, the V-cycle's error propagation E in the weighted norm.

        kappa^2 is the top eigenvalue of E*E, where the B-adjoint E* is the
        cycle with each sweep replaced by its adjoint and nu1, nu2 swapped.
        E*E is B-self-adjoint, so that eigenvalue is real: Arnoldi (ARPACK) on
        E*E x, with no solve with B, starts from a KAPPA_SEED-drawn vector, so
        the result is deterministic.  Raises NumericsError unless it is real to
        1e-8, 0 < kappa < 1 and every product is finite.
        """
        B = self.fine.B
        adj = copy.copy(self)  # shares the levels and both transfer lists
        adj.smoother, adj.nu1, adj.nu2 = self.smoother.adjoint(), self.nu2, self.nu1
        zero = np.zeros(B.shape[0])

        def apply(x):
            x, r = vcycle(self, x, zero, -(B @ x))
            y = vcycle(adj, x, zero, r)[0]  # E*E x
            if not np.isfinite(y).all():
                raise NumericsError("V-cycle produced a non-finite value in the cycle norm")
            return y

        v0 = np.random.default_rng(KAPPA_SEED).standard_normal(B.shape[0])
        try:
            lam = spla.eigs(spla.LinearOperator(B.shape, matvec=apply, dtype=float), k=1,
                            which="LR", v0=v0, tol=1e-10, return_eigenvectors=False)[0]
        except spla.ArpackError as exc:
            raise NumericsError(f"cycle norm did not converge: {exc}") from exc
        if not (0.0 < lam.real < 1.0 and abs(lam.imag) <= 1e-8 * lam.real):  # fails for NaN
            raise NumericsError(f"V-cycle is not contracting: |E|_B^2 = {lam:.4g}")
        return float(np.sqrt(lam.real))


def level_sizes(K: int, K0: int) -> list:
    """Mesh sizes K0, 2*K0, ..., K of a hierarchy; raises unless K = K0 * 2^L."""
    Ks = [K]
    while Ks[-1] > K0 and Ks[-1] % 2 == 0:
        Ks.append(Ks[-1] // 2)
    if Ks[-1] != K0:
        raise ConfigurationError(f"K={K} is not K0*2^L for coarsest K0={K0}")
    return Ks[::-1]


def check_cycle(nu1: int, nu2: int, K0: int) -> None:
    """Raise unless nu1, nu2 are integers >= 0 with nu1 + nu2 >= 1 and K0 is
    an even integer >= 2."""
    if not all(is_int(v) and v >= 0 for v in (nu1, nu2)) or nu1 + nu2 < 1:
        raise ConfigurationError(
            f"need integers nu1, nu2 >= 0 with nu1+nu2 >= 1, got {nu1}, {nu2}")
    if not (is_int(K0) and K0 >= 2 and K0 % 2 == 0):
        raise ConfigurationError(f"coarsest K0 must be an even integer >= 2, got {K0}")


def build_hierarchy(fine: FemSystem, tau: float, alpha: float,
                    smoother: Smoother = GaussSeidelForward(),
                    nu1: int = 1, nu2: int = 1, K0: int = 4) -> MgHierarchy:
    """Build the nested hierarchy under a fine system.

    The fine K must equal K0 * 2^L with L >= 1.  Going from fine to coarse,
    each level's operator is the Galerkin product P' B P of the one above it.
    """
    check_cycle(nu1, nu2, K0)
    Ks = level_sizes(fine.mesh.K, K0)
    if len(Ks) < 2:
        raise ConfigurationError(f"fine K={fine.mesh.K} equals K0; need L >= 1")

    restrictions, Bs = [], [fine.system_matrix(tau, alpha)]
    for K in Ks[-2::-1]:
        P = prolongation_matrix(K)  # dropped once R and P' B P are made
        restrictions.insert(0, P.T.tocsr())
        Bs.append((P.T @ Bs[-1] @ P).tocsr())
    # coarse to fine, each CSR product dropped once its level is made (made
    # fine to coarse between the products, they raised iis peak RSS 5-9 MB)
    levels = [GridLevel(Bs.pop()) for _ in range(len(Bs))]

    # unchecked on purpose: the caller's correction and divergence tests
    # already check each cycle, and at K0=4 a checked coarse solve takes
    # 13 us against 1 us raw, about 0.17 s over the 13533 cycles of the
    # K=64 example2 table (2-core Xeon, one BLAS thread)
    coarse_lu = Factor(levels[0].B).lu
    return MgHierarchy(levels, restrictions, coarse_lu, smoother, nu1, nu2)


def smooth(level: GridLevel, x: np.ndarray | None, rhs: np.ndarray,
           kind: Smoother, sweeps: int = 1) -> np.ndarray:
    """Apply ``sweeps`` smoothing sweeps to the float vector x (``vcycle``
    converts its input once).  ``x = None`` is the zero guess, whose first
    sweep skips the product with x."""
    for _ in range(sweeps):
        x = kind.sweep(level, x, rhs)
    return x


def vcycle(h: MgHierarchy, x0: np.ndarray, rhs: np.ndarray,
           r0: np.ndarray) -> tuple:
    """One V(nu1, nu2) cycle for the finest-level system B x = rhs from x0,
    whose residual rhs - B x0 the caller passes as r0.  Returns the new
    iterate and its residual."""
    x0, rhs, r0 = (np.asarray(v, dtype=float) for v in (x0, rhs, r0))
    n = h.fine.B.shape[0]
    if not x0.shape == rhs.shape == r0.shape == (n,):
        raise ValueError(f"expected vectors of length {n}, got {x0.shape}, "
                         f"{rhs.shape} and {r0.shape}")
    return _cycle(h, h.n_levels - 1, x0, rhs, r0)


def _cycle(h: MgHierarchy, lvl: int, x: np.ndarray | None, rhs: np.ndarray,
           r: np.ndarray) -> tuple:
    """The cycle on level lvl from x (None: the zero guess) with residual r.
    Only the finest level forms its output residual, returned beside x."""
    if lvl == 0:
        return h.coarse_lu.solve(r), None
    level, kind = h.levels[lvl], h.smoother
    if h.nu1:
        # the first sweep from x adds the zero-guess sweep on B e = r to x:
        # for Jacobi bitwise x + omega D^-1 (rhs - B x), for GS x + L^-1 r
        e = smooth(level, None, r, kind, 1)
        x_in, x = x, (e if x is None else x + e)
        for _ in range(h.nu1 - 1):
            x_in, x = x, smooth(level, x, rhs, kind, 1)
        r = kind.residual(level, rhs, x_in, x)
    rc = _product(h.restrictions[lvl - 1], r)
    c = _product(h.prolongations[lvl - 1], _cycle(h, lvl - 1, None, rc, rc)[0])
    x = c if x is None else x + c
    if lvl < h.n_levels - 1:
        return smooth(level, x, rhs, kind, h.nu2), None
    if not h.nu2:
        return x, rhs - _product(level.B, x)
    for _ in range(h.nu2):
        x_in, x = x, smooth(level, x, rhs, kind, 1)
    return x, kind.residual(level, rhs, x_in, x)


class DirectSolver(Factor):
    """The time stepper's Factor: with ``__init__`` and ``solve`` in its own body, a
    tracer counts them apart from the coarse level's."""

    __init__, solve = Factor.__init__, Factor.solve
