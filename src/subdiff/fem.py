"""P1 finite elements on a uniform triangulation of the square (-1, 1)^2.

The square is cut into K x K cells of side h = 2/K and every cell is split
along its bottom-left to top-right diagonal, giving 2 K^2 triangles.  Zero
Dirichlet values are eliminated at assembly, so matrices and nodal vectors
live on the (K-1)^2 interior nodes, numbered lexicographically (x fastest).
Grid functions are plain float ndarrays of that length.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ConfigurationError, NumericsError, is_int

__all__ = [
    "Mesh2D",
    "FemSystem",
    "build_mesh",
    "assemble",
    "load_vector",
    "Factor",
    "l2_project",
    "l2_norm",
]

# Normwise backward error |b - A x| / (|A| |x| + |b|), infinity norms, that a
# direct solve must reach: about 90 unit roundoffs.  A correct banded
# solve of example 1 leaves 5.9e-16, 4.2e-16 and 6.2e-16 at K = 64, 128 and
# 256; the relative residual |b - A x| / |b| grows as K^2 instead.
SOLVE_BACKWARD_TOL = 1e-14

# 6-point triangle rule, exact for polynomials of degree <= 4.
_QUAD_BARY = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_QUAD_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


class Mesh2D:
    """Uniform triangulation of (-1,1)^2 with K subdivisions per side.

    Attributes
    ----------
    K, h : resolution and mesh size h = 2/K.
    coords : (K+1)^2 x 2 node coordinates, node q = iy*(K+1) + ix.
    triangles : (2K^2, 3) vertex indices, counterclockwise.
    interior_of_full : full-node index -> interior index, -1 on the boundary.
    full_of_interior : interior index -> full-node index.
    b, c : (2K^2, 3) edge differences, grad(phi_k) = (b_k, c_k) / (2 area).
    area : (2K^2,) triangle areas.
    quad_points : (6, 2K^2, 2) physical points of the 6-point rule.
    """

    def __init__(self, K: int):
        if not (is_int(K) and K >= 2 and K % 2 == 0):
            raise ConfigurationError(f"K must be an even integer >= 2, got {K}")
        self.K = int(K)
        self.h = 2.0 / K
        xs = -1.0 + self.h * np.arange(K + 1)
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        self.coords = np.column_stack([X.ravel(), Y.ravel()])

        ix, iy = np.meshgrid(np.arange(K), np.arange(K), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()
        n00 = iy * (K + 1) + ix
        n10 = n00 + 1
        n01 = n00 + (K + 1)
        n11 = n01 + 1
        tris = np.empty((2 * K * K, 3), dtype=np.int64)
        tris[0::2] = np.column_stack([n00, n10, n11])  # below the diagonal
        tris[1::2] = np.column_stack([n00, n11, n01])  # above the diagonal
        self.triangles = tris

        fx = np.arange((K + 1) ** 2) % (K + 1)
        fy = np.arange((K + 1) ** 2) // (K + 1)
        interior = (fx > 0) & (fx < K) & (fy > 0) & (fy < K)
        self.interior_of_full = np.where(
            interior, np.cumsum(interior) - 1, -1).astype(np.int64)
        self.full_of_interior = np.flatnonzero(interior)
        self.n_interior = int(interior.sum())

        p = self.coords[tris.T]  # p[k]: vertex k of every triangle
        x, y = p[..., 0], p[..., 1]
        self.b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1)
        self.c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1)
        self.area = 0.5 * (self.b[:, 0] * self.c[:, 1] - self.b[:, 1] * self.c[:, 0])
        # summed in vertex order; a BLAS product would change the last bits
        self.quad_points = sum(_QUAD_BARY[:, k, None, None] * p[k] for k in range(3))


def build_mesh(K: int) -> Mesh2D:
    return Mesh2D(K)


@dataclass(frozen=True)
class FemSystem:
    """Interior-node mass and stiffness matrices for A = -c_A * Laplacian."""

    mesh: Mesh2D
    c_A: float
    M: sp.csr_matrix
    S: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def system_matrix(self, tau: float, alpha: float) -> sp.csr_matrix:
        """Per-step operator M + tau^alpha S.  The sum's arrays view buffers
        sized for nnz(M) + nnz(S); the copy keeps only its nnz entries."""
        return (self.M + tau ** alpha * self.S).tocsr(copy=True)


def assemble(mesh: Mesh2D, c_A: float) -> FemSystem:
    """Assemble mass and stiffness over interior nodes.

    Element matrices are the exact P1 formulas: mass area/12 * (1 + I),
    stiffness (b b' + c c')/(4 area) scaled by c_A.  Assembly order is fixed,
    so results are bit-reproducible; tocsr() sums duplicates and sorts indices.
    """
    if not (np.isfinite(c_A) and c_A > 0.0):
        raise ConfigurationError(f"diffusivity must be finite and positive, got {c_A}")
    b, c, area = mesh.b, mesh.c, mesh.area
    Ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    Ke = c_A * Ke / (4.0 * area)[:, None, None]
    Me = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]

    idx = mesh.interior_of_full[mesh.triangles]
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_interior
    S = sp.coo_matrix((Ke.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    M = sp.coo_matrix((Me.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    return FemSystem(mesh=mesh, c_A=float(c_A), M=M, S=S)


def load_vector(mesh: Mesh2D, g) -> np.ndarray:
    """Interior load vector F_i = integral of g * phi_i, 6-point rule per triangle.

    ``g(x, y)`` must accept equal-shaped arrays and return an array; values
    must be finite.
    """
    Fe = np.zeros((len(mesh.triangles), 3))
    for q, w in enumerate(_QUAD_W):
        gv = np.broadcast_to(np.asarray(g(*mesh.quad_points[q].T), dtype=float),
                             (len(mesh.triangles),))
        Fe += (w * mesh.area * gv)[:, None] * _QUAD_BARY[q][None, :]
    if not np.all(np.isfinite(Fe)):
        raise NumericsError("load function produced non-finite values")
    return _scatter_to_interior(mesh, Fe)


def _scatter_to_interior(mesh: Mesh2D, Fe: np.ndarray) -> np.ndarray:
    F = np.zeros(mesh.n_interior)
    idx = mesh.interior_of_full[mesh.triangles]
    keep = idx >= 0
    np.add.at(F, idx[keep], Fe[keep])
    return F


class _BandedCholesky:
    """LAPACK Cholesky factor of an SPD matrix in upper band storage.  The
    bandwidth is read off the matrix: K for B, M and S in lexicographic order."""

    def __init__(self, A: sp.dia_matrix):
        upper = A.offsets >= 0
        rows = A.data[upper, :A.shape[0]]
        # dpbtrf lets a NaN entry through with info = 0
        if not np.all(np.isfinite(rows)):
            raise NumericsError("factorization got a non-finite matrix entry")
        # a DIA row holds A[j - o, j] in column j, as band row bw - o does
        bw = int(np.max(A.offsets, initial=0))
        ab = np.zeros((bw + 1, A.shape[0]), order="F")
        ab[bw - A.offsets[upper], :rows.shape[1]] = rows
        self.cb, info = dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise NumericsError(f"matrix is not positive definite (dpbtrf info={info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # dpbtrs directly: at K=4 it takes 1 us, cho_solve_banded 12 us
        x, info = dpbtrs(self.cb, rhs)
        if info != 0:
            raise NumericsError(f"banded solve failed (dpbtrs info={info})")
        return x


class Factor:
    """Banded Cholesky factorization of an SPD matrix A with a checked solve.

    Every direct solve of an SPD system in the package factors here, so the
    factorization is chosen in this one place.  Raises NumericsError if A
    has a non-finite entry or is not positive definite.
    """

    def __init__(self, A: sp.spmatrix):
        self.A = A.todia()  # the residual product, bitwise CSR's; a DIA A is shared
        self.lu = _BandedCholesky(self.A)
        self.norm_A = float(abs(self.A).sum(axis=1).max())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs to a normwise backward error of at most
        SOLVE_BACKWARD_TOL, taking one refinement step if needed.

        Raises NumericsError for a non-finite right-hand side or a missed
        tolerance.
        """
        A, lu = self.A, self.lu
        nrhs = np.abs(rhs).max()
        if not np.isfinite(nrhs):
            raise NumericsError("direct solve got a non-finite right-hand side")
        x = lu.solve(rhs)
        if not self._accepts(rhs - A @ x, x, nrhs):
            x = x + lu.solve(rhs - A @ x)
            if not self._accepts(rhs - A @ x, x, nrhs):
                raise NumericsError("direct solve failed to reach residual tolerance")
        return x

    def _accepts(self, r: np.ndarray, x: np.ndarray, nrhs: float) -> bool:
        bound = SOLVE_BACKWARD_TOL * (self.norm_A * np.abs(x).max() + nrhs)
        # a NaN in x or r fails the first test, an Inf in x the second
        return bool(np.abs(r).max() <= bound < np.inf)


def l2_project(sys: FemSystem, g) -> np.ndarray:
    """L2 projection of g onto the interior P1 space: solve M x = F(g)."""
    return Factor(sys.M).solve(load_vector(sys.mesh, g))


def l2_norm(sys: FemSystem, x: np.ndarray) -> float:
    """Mass-matrix norm, equal to the L2 norm of the P1 interpolant."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(max(x @ (sys.M @ x), 0.0)))
