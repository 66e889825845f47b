"""P1 finite elements on a uniform triangulation of the square (-1, 1)^2.

The square is cut into K x K cells of side h = 2/K and every cell is split
along its bottom-left to top-right diagonal, giving 2 K^2 triangles of area
h^2/2, so mass and stiffness are constant 7-point stencils, assembled with
no element arrays.  Zero Dirichlet values are eliminated at assembly, so
matrices and nodal vectors live on the (K-1)^2 interior nodes, numbered
lexicographically (x fastest).  Grid functions are float ndarrays of that length.
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

# Iteration cap of the L2 projection's CG, which takes 26-27 at K = 16 to 512.
MASS_CG_MAX_ITERATIONS = 100

# Triangles per block of ``load_vector``.
LOAD_BLOCK = 2 ** 14

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
    area : h^2/2, the area of every triangle.
    """

    def __init__(self, K: int):
        if not (is_int(K) and K >= 2 and K % 2 == 0):
            raise ConfigurationError(f"K must be an even integer >= 2, got {K}")
        self.K = int(K)
        self.h = 2.0 / K
        self.area = 0.5 * self.h * self.h
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
        self.n_interior = int(interior.sum())


def build_mesh(K: int) -> Mesh2D:
    return Mesh2D(K)


@dataclass(frozen=True)
class FemSystem:
    """Interior-node mass and stiffness matrices for A = -c_A * Laplacian, in
    CSR storage on one sparsity pattern."""

    mesh: Mesh2D
    c_A: float
    M: sp.csr_matrix
    S: sp.csr_matrix

    def __post_init__(self):
        M, S = self.M, self.S
        if not (np.array_equal(M.indptr, S.indptr) and np.array_equal(M.indices, S.indices)):
            raise ValueError("M and S must share one CSR sparsity pattern")

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def system_matrix(self, tau: float, alpha: float) -> sp.csr_matrix:
        """Per-step operator M + tau^alpha S on its own copy of the shared
        pattern, bitwise scipy's pruned sum, with no scaled copy of S and no
        buffers for nnz(M) + nnz(S) entries."""
        M = self.M
        data = tau ** alpha * self.S.data
        data += M.data
        B = sp.csr_matrix((data, M.indices.copy(), M.indptr.copy()), shape=M.shape)
        B.eliminate_zeros()  # as the sum prunes its zeros
        return B


def assemble(mesh: Mesh2D, c_A: float) -> FemSystem:
    """Mass and stiffness over interior nodes, from their 7-point stencils
    straight into CSR: node i couples to i-m-1, i-m, i-1, i+1, i+m and i+m+1
    where they are interior (m = K - 1).  S = c_A (4 on the diagonal, -1 at
    +-1 and +-m, an explicit 0 at +-(m+1)), M = h^2/2 on the diagonal and
    h^2/12 off it.  Each value is formed as the sum of the P1 element
    matrices forms it, bit for bit at power-of-two K; S and M have one
    pattern with int32 indices, as tocsr() makes them."""
    if not (np.isfinite(c_A) and c_A > 0.0):
        raise ConfigurationError(f"diffusivity must be finite and positive, got {c_A}")
    m, area, hh = mesh.K - 1, mesh.area, mesh.h * mesh.h
    offsets = np.array([-m - 1, -m, -1, 0, 1, m, m + 1], dtype=np.int32)
    inside = np.ones((m, m, 7), dtype=bool)  # [iy, ix, neighbour]
    inside[0, :, :2] = False  # none below
    inside[-1, :, 5:] = False  # none above
    inside[:, 0, [0, 2]] = False  # none to the left
    inside[:, -1, [4, 6]] = False  # none to the right
    inside = inside.reshape(m * m, 7)
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    indices = (np.arange(m * m, dtype=np.int32)[:, None] + offsets)[inside]

    # one triangle's share of a leg edge, of an acute vertex and of its
    # right-angle vertex; each diagonal edge's share is an exact zero.  The
    # diagonal sums a node's six triangles in the order they are numbered
    leg, acute, right = (c_A * bc / (4.0 * area) for bc in (-hh, hh, hh + hh))
    s_off, s_diag = leg + leg, acute + acute + right + right + acute + acute
    m_off, m_diag = area * (1.0 / 12.0), area * (2.0 / 12.0)
    m_off, m_diag = m_off + m_off, m_diag + m_diag + m_diag + m_diag + m_diag + m_diag
    S, M = (sp.csr_matrix((np.broadcast_to(row, inside.shape)[inside], indices.copy(),
                           indptr.copy()), shape=(m * m, m * m))
            for row in ([0.0, s_off, s_off, s_diag, s_off, s_off, 0.0],
                        [m_off] * 3 + [m_diag] + [m_off] * 3))
    return FemSystem(mesh=mesh, c_A=float(c_A), M=M, S=S)


def load_vector(mesh: Mesh2D, g) -> np.ndarray:
    """Interior load vector F_i = integral of g * phi_i, 6-point rule per triangle.

    ``g(x, y)`` must accept equal-shaped arrays and return an array; values
    must be finite.  Triangles go in blocks of LOAD_BLOCK, in order, so the
    result is that of one pass over all of them bit for bit.
    """
    F = np.zeros(mesh.n_interior)
    for start in range(0, len(mesh.triangles), LOAD_BLOCK):
        tris = mesh.triangles[start:start + LOAD_BLOCK]
        p = mesh.coords[tris.T]  # p[k]: vertex k of every triangle
        Fe = np.zeros((len(tris), 3))
        for bary, w in zip(_QUAD_BARY, _QUAD_W):
            # the rule's points, summed in vertex order; a BLAS product would
            # change the last bits
            x = bary[0] * p[0]
            x += bary[1] * p[1]
            x += bary[2] * p[2]
            gv = np.broadcast_to(np.asarray(g(*x.T), dtype=float), (len(tris),))
            Fe += (w * mesh.area * gv)[:, None] * bary[None, :]
        if not np.all(np.isfinite(Fe)):
            raise NumericsError("load function produced non-finite values")
        idx = mesh.interior_of_full[tris]
        keep = idx >= 0
        np.add.at(F, idx[keep], Fe[keep])
    return F


def _to_dia(A: sp.csr_matrix) -> sp.dia_matrix:
    """A.todia() bit for bit, for a CSR A free of duplicate entries.  todia()
    goes through a COO copy of A and sorts every entry's offset with its
    inverse index; here a mask over the m + n - 1 possible offsets marks and
    numbers those present, with two index arrays of nnz entries."""
    m, n = A.shape
    # each entry's offset col - row, shifted by m - 1 to count from 0
    ks = np.repeat(np.arange(m - 1, -1, -1, dtype=A.indices.dtype), np.diff(A.indptr))
    ks += A.indices
    present = np.zeros(m + n - 1, dtype=bool)
    present[ks] = True
    offsets = (np.flatnonzero(present) - (m - 1)).astype(A.indices.dtype)
    data = np.zeros((len(offsets), A.indices.max(initial=-1) + 1), dtype=A.dtype)
    data[(np.cumsum(present, dtype=A.indices.dtype) - 1)[ks], A.indices] = A.data
    return sp.dia_matrix((data, offsets), shape=A.shape)


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
        if not _accepts(rhs - A @ x, x, self.norm_A, nrhs):
            x = x + lu.solve(rhs - A @ x)
            if not _accepts(rhs - A @ x, x, self.norm_A, nrhs):
                raise NumericsError("direct solve failed to reach residual tolerance")
        return x


def _accepts(r: np.ndarray, x: np.ndarray, norm_A: float, nrhs: float) -> bool:
    """Whether x, with residual r = b - A x, solves A x = b to a normwise
    backward error of at most SOLVE_BACKWARD_TOL, given |A| and |b|."""
    bound = SOLVE_BACKWARD_TOL * (norm_A * np.abs(x).max() + nrhs)
    # a NaN in x or r fails the first test, an Inf in x the second
    return bool(np.abs(r).max() <= bound < np.inf)


def l2_project(sys: FemSystem, g) -> np.ndarray:
    """L2 projection of g onto the interior P1 space: solve M x = F(g) by
    conjugate gradients from zero on the DIA copy of M, preconditioned by its
    diagonal.  So scaled, M's condition number does not grow with K (Wathen,
    IMA J. Numer. Anal. 7, 1987), and no band factor of M is made.  x is
    accepted by ``Factor.solve``'s backward-error rule on the true residual.
    Raises NumericsError for a non-finite load or past MASS_CG_MAX_ITERATIONS.
    """
    F = load_vector(sys.mesh, g)
    nF = np.abs(F).max()
    if not np.isfinite(nF):
        raise NumericsError("L2 projection got a non-finite load")
    M, d = _to_dia(sys.M), sys.M.diagonal()
    norm_M = float(abs(M).sum(axis=1).max())
    x, r = np.zeros_like(F), F.copy()
    p = z = r / d
    # einsum, not BLAS: OpenBLAS's ddot splits vectors of more than 10^4
    # entries over its threads, so its bits would depend on the thread count
    rz = np.einsum("i,i", r, z)
    for it in range(MASS_CG_MAX_ITERATIONS + 1):
        # the recursive residual drifts from the true one, which decides
        if _accepts(r, x, norm_M, nF):
            r = F - M @ x
            if _accepts(r, x, norm_M, nF):
                return x
        if it == MASS_CG_MAX_ITERATIONS:
            raise NumericsError(f"L2 projection missed its tolerance in {it} CG iterations")
        q = M @ p
        a = rz / np.einsum("i,i", p, q)
        x += a * p
        r -= a * q
        z = r / d
        rz, rz_old = np.einsum("i,i", r, z), rz
        p = z + (rz / rz_old) * p


def l2_norm(sys: FemSystem, x: np.ndarray) -> float:
    """Mass-matrix norm, equal to the L2 norm of the P1 interpolant."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(max(x @ (sys.M @ x), 0.0)))
