"""Mesh, assembly, loads, projections, and norms."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import subdiff.fem as fem
from oracles import (element_geometry, factored_l2_project, l2_error_vs_function,
                     plain_assemble, plain_load_vector, ritz_project)
from subdiff.errors import ConfigurationError, NumericsError
from subdiff.fem import (Factor, FemSystem, assemble, build_mesh, l2_norm, l2_project,
                         load_vector, _QUAD_BARY, _QUAD_W, _to_dia)
from subdiff.multigrid import build_hierarchy


def hat_function(mesh, ix, iy):
    """Closed form of the P1 basis function at grid node (ix, iy).

    For the triangulation with bottom-left/top-right cell diagonals the hat
    equals max(0, 1 - max(|xi|, |eta|, |xi - eta|)) in cell units.
    """
    x0 = -1.0 + ix * mesh.h
    y0 = -1.0 + iy * mesh.h

    def g(x, y):
        xi = (x - x0) / mesh.h
        eta = (y - y0) / mesh.h
        return np.maximum(0.0, 1.0 - np.maximum(np.abs(xi - eta),
                                                np.maximum(np.abs(xi), np.abs(eta))))

    return g


def triangle_centroids(mesh):
    return mesh.coords[mesh.triangles].mean(axis=1)


def load_vector_from_cell_values(mesh, values):
    """Exact load vector of a function constant on each triangle: the
    integral of phi_i over a triangle is area/3 at each of its vertices."""
    share = np.asarray(values, dtype=float) * mesh.area / 3.0
    F = np.zeros(mesh.n_interior)
    idx = mesh.interior_of_full[mesh.triangles]
    for k in range(3):
        keep = idx[:, k] >= 0
        np.add.at(F, idx[keep, k], share[keep])
    return F


# ---------------------------------------------------------------- mesh


def test_mesh_counts():
    m = build_mesh(2)
    assert m.n_interior == 1
    assert len(m.triangles) == 8
    np.testing.assert_allclose(m.coords[np.flatnonzero(m.interior_of_full >= 0)], [[0.0, 0.0]])
    m = build_mesh(4)
    assert m.n_interior == 9
    assert len(m.triangles) == 32
    m = build_mesh(128)
    assert m.n_interior == 16129


def test_mesh_triangle_areas_positive():
    """Every triangle's area, from its vertices, is the mesh's h^2/2."""
    m = build_mesh(6)
    assert m.area == m.h**2 / 2.0
    np.testing.assert_allclose(element_geometry(m)[2], m.area, rtol=1e-14)


@pytest.mark.parametrize("K", [1, 3, 0, -2, 7])
def test_mesh_rejects_bad_K(K):
    with pytest.raises(ConfigurationError):
        build_mesh(K)


# ---------------------------------------------------------------- assembly


def test_hand_assembled_entries_K2():
    sys = assemble(build_mesh(2), 1.0)
    assert sys.S[0, 0] == pytest.approx(4.0, rel=1e-14)
    assert sys.M[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_matrices_bitwise_symmetric():
    sys = assemble(build_mesh(8), 5.0)
    assert (sys.S != sys.S.T).nnz == 0
    assert (sys.M != sys.M.T).nnz == 0


def test_stiffness_row_sum_zero_on_full_stencil():
    sys = assemble(build_mesh(8), 3.0)
    mesh = sys.mesh
    # node (4,4): all neighbours interior
    row = mesh.interior_of_full[4 * 9 + 4]
    assert abs(sys.S[row].sum()) <= 1e-13 * abs(sys.S[row, row])


def test_mass_total_matches_quadrature():
    sys = assemble(build_mesh(8), 1.0)
    mesh = sys.mesh
    ones = np.ones(sys.dim)
    total = ones @ (sys.M @ ones)
    # quadrature oracle: integrate the square of the sum of interior hats
    full = np.zeros(len(mesh.coords))
    full[np.flatnonzero(mesh.interior_of_full >= 0)] = 1.0
    nodal = full[mesh.triangles]
    acc = 0.0
    for lam, w in zip(_QUAD_BARY, _QUAD_W):
        vals = nodal @ lam
        acc += w * np.sum(vals**2) * (mesh.h**2 / 2.0)
    assert total == pytest.approx(acc, rel=1e-13)
    assert 0.0 < total < 4.0


def test_positive_definite_small():
    sys = assemble(build_mesh(4), 2.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(sys.dim)
        assert x @ (sys.M @ x) > 0.0
        assert x @ (sys.S @ x) > 0.0


def test_assemble_rejects_bad_diffusivity():
    with pytest.raises(ConfigurationError):
        assemble(build_mesh(4), 0.0)


def test_system_rejects_m_and_s_of_different_patterns():
    """system_matrix sums data on the pattern S and M share, so a system
    whose S drops an entry that M stores is refused when it is made."""
    M = sp.csr_matrix(np.array([[1.0]]))
    with pytest.raises(ValueError, match="share one CSR sparsity pattern"):
        FemSystem(mesh=None, c_A=1.0, M=M, S=sp.csr_matrix((1, 1)))


def test_system_matrix_owns_buffers_of_its_size():
    """B = M + tau^alpha S holds nnz entries, not views of the sum's buffers
    sized for nnz(M) + nnz(S)."""
    def owner(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    sys = assemble(build_mesh(16), 5.0)
    B = sys.system_matrix(0.01, 0.5)
    assert (B != sys.M + 0.01 ** 0.5 * sys.S).nnz == 0
    for arr in (B.data, B.indices):
        assert owner(arr).size == len(arr) == B.nnz


@pytest.mark.parametrize("K", [4, 16, 64, 128])
def test_system_matrix_is_scipys_pruned_sum_bitwise(K):
    """B, formed on a copy of the pattern that S and M share, is scipy's
    pruned sum M + tau^alpha S bit for bit: in its CSR arrays and their
    dtypes, and in its DIA copy."""
    sys = assemble(build_mesh(K), 5.0)
    assert np.array_equal(sys.M.indptr, sys.S.indptr)
    assert np.array_equal(sys.M.indices, sys.S.indices)
    for tau, alpha in ((0.01, 0.5), (1.0 / 320, 0.2), (1.0, 0.9)):
        B = sys.system_matrix(tau, alpha)
        ref = (sys.M + tau ** alpha * sys.S).tocsr(copy=True)
        for part in ("data", "indices", "indptr"):
            got, want = getattr(B, part), getattr(ref, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for arr in (B.indices, B.indptr):  # its own copy of the pattern
            assert not np.shares_memory(arr, sys.M.indices)
            assert not np.shares_memory(arr, sys.M.indptr)
        assert _to_dia(B).data.tobytes() == _to_dia(ref).data.tobytes()


def test_system_matrix_peaks_near_its_result():
    """system_matrix at K=64 peaks at no more than 1.5 times the bytes of the
    B it returns (1.003 times measured); scipy's sum, with a scaled copy of S
    and buffers for nnz(M) + nnz(S) entries, peaked at 2.96 times."""
    sys = assemble(build_mesh(64), 5.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        B = sys.system_matrix(1.0 / 320, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (B.data.nbytes + B.indices.nbytes + B.indptr.nbytes)


def test_lean_assembly_and_loads_match_plain_oracles():
    """The stencil assembly and the blocked load_vector match the plain
    element-array oracles bit for bit at power-of-two K: S and M in data,
    indices, indptr and their dtypes, and the load vector of smooth, rough
    and constant data.  At K=6, whose spacing is not a power of two, the
    element arrays vary in their last bits from cell to cell; there the
    pattern is the same, each entry of S and M lies within 4 ulps of its
    own size and the loads within 4 ulps of their largest entry (3 and 3
    measured)."""
    loads = (lambda x, y: np.exp(x) * np.cos(3.0 * y),
             lambda x, y: (x < 0.1).astype(float) + (y < -0.3).astype(float),
             lambda x, y: 2.5)
    for K in (2, 4, 16, 64, 128):
        mesh = build_mesh(K)
        for c_A in (1.0, 5.0):
            sys = assemble(mesh, c_A)
            for A, want in zip((sys.S, sys.M), plain_assemble(mesh, c_A)):
                for part in ("data", "indices", "indptr"):
                    got, ref = getattr(A, part), getattr(want, part)
                    assert got.dtype == ref.dtype
                    assert got.tobytes() == ref.tobytes()
        for g in loads:
            assert load_vector(mesh, g).tobytes() == plain_load_vector(mesh, g).tobytes()
    mesh = build_mesh(6)
    sys = assemble(mesh, 0.3)
    for A, want in zip((sys.S, sys.M), plain_assemble(mesh, 0.3)):
        assert np.array_equal(A.indices, want.indices)
        assert np.array_equal(A.indptr, want.indptr)
        assert np.all(np.abs(A.data - want.data) <= 4 * np.spacing(np.abs(want.data)))
    for g in loads:
        F, ref = load_vector(mesh, g), plain_load_vector(mesh, g)
        assert np.abs(F - ref).max() <= 4 * np.spacing(np.abs(ref).max())


def test_assembly_peak_is_a_small_multiple_of_its_result():
    """Mesh and assembly at K=64 peak at most 1.25 times the bytes they
    leave alive (mesh, S and M): 1.06 MB for 1.00 MB traced, 1.06 times.
    From element arrays and an int32 coupling list they peaked at 3.4 MB
    for 1.46 MB, 2.35 times; with full (2K^2, 3, 3) element and index
    arrays and the mesh's (6, 2K^2, 2) quadrature points, at 6.8 MB for
    2.2 MB, 3.06 times."""
    tracemalloc.start()
    try:
        sys = assemble(build_mesh(64), 5.0)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys.dim == 63 ** 2
    assert peak <= 1.25 * live


# ---------------------------------------------------------------- loads


def test_load_zero():
    mesh = build_mesh(4)
    assert np.all(load_vector(mesh, lambda x, y: np.zeros_like(x)) == 0.0)


def test_load_constant_one_K2():
    mesh = build_mesh(2)
    F = load_vector(mesh, lambda x, y: np.ones_like(x))
    assert F[0] == pytest.approx(1.0, abs=1e-14)


def test_load_piecewise_constant_matches_cell_oracle():
    mesh = build_mesh(4)
    g = lambda x, y: (x < 0.0).astype(float) + (y < 0.0).astype(float)
    F = load_vector(mesh, g)
    cen = triangle_centroids(mesh)
    cell_vals = g(cen[:, 0], cen[:, 1])
    F_oracle = load_vector_from_cell_values(mesh, cell_vals)
    np.testing.assert_allclose(F, F_oracle, rtol=1e-13, atol=1e-16)


def test_load_rejects_non_finite():
    mesh = build_mesh(4)
    with pytest.raises(NumericsError):
        load_vector(mesh, lambda x, y: np.where(x > 0, np.inf, 1.0))
    with pytest.raises(NumericsError):
        ritz_project(assemble(mesh, 1.0), lambda x, y: (np.where(x > 0, np.nan, 1.0), y))


# ---------------------------------------------------------------- projections


def test_l2_project_zero():
    sys = assemble(build_mesh(4), 1.0)
    assert np.all(l2_project(sys, lambda x, y: np.zeros_like(x)) == 0.0)


@pytest.mark.parametrize("K", [2, 4, 16, 64])
def test_l2_project_matches_the_factored_oracle(K):
    """CG on M lands within 1e-13 (max norm, relative) of the factored
    projection on smooth, indicator and constant data, and meets the direct
    solve's backward-error rule on its true residual; zero data gives exact
    zeros."""
    sys = assemble(build_mesh(K), 5.0)
    norm_M = float(abs(sys.M).sum(axis=1).max())
    for g in (lambda x, y: np.exp(x) * np.cos(3.0 * y),
              lambda x, y: (x < 0.0).astype(float) + (y < 0.0).astype(float),
              lambda x, y: 2.5):
        x, ref = l2_project(sys, g), factored_l2_project(sys, g)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()
        F = load_vector(sys.mesh, g)
        assert fem._accepts(F - sys.M @ x, x, norm_M, np.abs(F).max())
    zero = l2_project(sys, lambda x, y: np.zeros_like(x))
    assert zero.shape == (sys.dim,) and np.all(zero == 0.0)


def test_l2_project_holds_no_band_factor():
    """At K=64 the projection's traced peak stays below the K+1 rows of n
    doubles a band factor of M takes (1.43 MB against 2.06 MB); the
    factored projection peaked at 3.7 MB."""
    sys = assemble(build_mesh(64), 5.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        l2_project(sys, lambda x, y: (x < 0.0).astype(float))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 65 * sys.dim * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_l2_project_rejects_a_non_finite_load(bad, monkeypatch):
    sys = assemble(build_mesh(8), 1.0)
    F = np.ones(sys.dim)
    F[3] = bad
    monkeypatch.setattr(fem, "load_vector", lambda mesh, g: F)
    with pytest.raises(NumericsError, match="L2 projection got a non-finite load"):
        l2_project(sys, lambda x, y: 1.0)


def test_l2_project_raises_past_its_iteration_cap(monkeypatch):
    """At K=16 CG takes 26 iterations; with a cap of 5 it raises."""
    sys = assemble(build_mesh(16), 1.0)
    g = lambda x, y: np.exp(x) * np.cos(3.0 * y)
    monkeypatch.setattr(fem, "MASS_CG_MAX_ITERATIONS", 5)
    with pytest.raises(NumericsError, match="in 5 CG iterations"):
        l2_project(sys, g)
    monkeypatch.setattr(fem, "MASS_CG_MAX_ITERATIONS", 40)
    assert np.all(np.isfinite(l2_project(sys, g)))


def test_l2_project_reproduces_mesh_function():
    sys = assemble(build_mesh(8), 1.0)
    mesh = sys.mesh
    proj = l2_project(sys, hat_function(mesh, 3, 5))
    expected = np.zeros(sys.dim)
    expected[mesh.interior_of_full[5 * 9 + 3]] = 1.0
    np.testing.assert_allclose(proj, expected, atol=1e-12)


def test_l2_projection_stability_random_piecewise_constant():
    sys = assemble(build_mesh(8), 1.0)
    mesh = sys.mesh
    area = mesh.h**2 / 2.0
    rng = np.random.default_rng(123)
    for _ in range(20):
        cell_vals = rng.standard_normal(len(mesh.triangles))
        F = load_vector_from_cell_values(mesh, cell_vals)
        x = np.linalg.solve(sys.M.toarray(), F)
        norm_g = math.sqrt(np.sum(cell_vals**2 * area))
        assert l2_norm(sys, x) <= norm_g * (1.0 + 1e-12)


def test_l2_projection_stability_indicator_data():
    sys = assemble(build_mesh(8), 1.0)
    g = lambda x, y: (x < 0.0).astype(float) + (y < 0.0).astype(float)
    proj = l2_project(sys, g)
    # exact per-cell integration: ||g||^2 = 6 on this domain
    cen = triangle_centroids(sys.mesh)
    cell_vals = g(cen[:, 0], cen[:, 1])
    norm_g = math.sqrt(np.sum(cell_vals**2) * sys.mesh.h**2 / 2.0)
    assert norm_g == pytest.approx(math.sqrt(6.0), rel=1e-14)
    assert l2_norm(sys, proj) <= norm_g


def test_ritz_project_zero():
    sys = assemble(build_mesh(4), 1.0)
    out = ritz_project(sys, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
    assert np.all(out == 0.0)


def test_ritz_project_reproduces_mesh_function():
    sys = assemble(build_mesh(8), 2.0)
    mesh = sys.mesh
    # exact cellwise-constant gradient of the hat at node (3, 5)
    b, c, area = element_geometry(mesh)
    node = 5 * 9 + 3
    grad_cells = np.zeros((len(mesh.triangles), 2))
    for local in range(3):
        on = mesh.triangles[:, local] == node
        grad_cells[on, 0] = b[on, local] / (2.0 * area[on])
        grad_cells[on, 1] = c[on, local] / (2.0 * area[on])

    def grad(x, y):
        # triangle of each point: its cell, then below (even) or above (odd)
        # the cell's diagonal; quadrature points lie inside their triangle
        sx, sy = (x + 1.0) / mesh.h, (y + 1.0) / mesh.h
        ix, iy = np.floor(sx).astype(int), np.floor(sy).astype(int)
        tri = 2 * (iy * mesh.K + ix) + (sy - iy > sx - ix)
        return grad_cells[tri, 0], grad_cells[tri, 1]

    proj = ritz_project(sys, grad)
    expected = np.zeros(sys.dim)
    expected[mesh.interior_of_full[node]] = 1.0
    np.testing.assert_allclose(proj, expected, atol=1e-12)


@pytest.mark.parametrize("c_A", [1.0, 5.0])
@pytest.mark.parametrize("K", [8, 16])
def test_energy_projection_identity(K, c_A):
    """Stiffness times the energy projection equals the load of A v."""
    sys = assemble(build_mesh(K), c_A)
    grad = lambda x, y: (-2.0 * x * (1.0 - y * y), -2.0 * y * (1.0 - x * x))
    av = lambda x, y: c_A * (2.0 * (1.0 - y * y) + 2.0 * (1.0 - x * x))
    R = ritz_project(sys, grad)
    lhs = sys.S @ R
    rhs = load_vector(sys.mesh, av)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


# ---------------------------------------------------------------- factor


class _CountingLU:
    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


@pytest.mark.parametrize("eps, refined", [(1e-9, True), (1e-3, False)])
def test_factor_refines_once_then_raises(eps, refined):
    """With the factor of A + eps I in place of A's, a small eps misses the
    tolerance at first and one refinement step rescues it; a large eps
    still misses it after that step."""
    sys = assemble(build_mesh(8), 1.0)
    A = sys.system_matrix(0.1, 0.5)
    rhs = np.random.default_rng(7).standard_normal(sys.dim)
    factor = Factor(A)
    factor.lu = _CountingLU(spla.splu((A + eps * sp.identity(sys.dim)).tocsc()))
    if refined:
        x = factor.solve(rhs)
        backward = np.abs(rhs - A @ x).max() / (
            abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
        assert backward <= 1e-14
    else:
        with pytest.raises(NumericsError, match="residual tolerance"):
            factor.solve(rhs)
    assert factor.lu.solves == 2


@settings(max_examples=20, deadline=None)
@given(K=st.sampled_from([4, 8, 16, 32]), tau=st.floats(1e-4, 1.0),
       alpha=st.floats(0.05, 0.95))
def test_factor_matches_sparse_lu(K, tau, alpha):
    """The banded factor of B, M and S has bandwidth K and solves as the
    sparse LU it replaced does."""
    sys = assemble(build_mesh(K), 5.0)
    rhs = np.random.default_rng(K).standard_normal(sys.dim)
    for A in (sys.system_matrix(tau, alpha), sys.M, sys.S):
        factor = Factor(A)
        assert factor.lu.cb.shape == (K + 1, sys.dim)  # bandwidth K
        x = factor.solve(rhs)
        ref = spla.splu(A.tocsc()).solve(rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("K", [8, 16, 32])
def test_dia_copies_of_m_s_b_are_csr_products_bitwise(K):
    """scipy's DIA copies of M, S and B, which the package's own builder
    reproduces bit for bit, have ascending offsets and multiply as the CSR
    matrices do, bit for bit, and so does that of a non-banded SPD matrix,
    whose conversion warns."""
    sys = assemble(build_mesh(K), 5.0)
    rng = np.random.default_rng(K)
    R = sp.random(60, 60, density=0.1, random_state=K)  # 109-115 diagonals
    spd = (R + R.T + 10.0 * sp.identity(60)).tocoo().tocsr()
    with pytest.warns(sp.SparseEfficiencyWarning):  # more than 100 diagonals
        far = spd.todia()
    banded = (sys.M, sys.S, sys.system_matrix(0.01, 0.5))
    for A in banded:  # the package's own DIA copies are scipy's
        lean, dia = _to_dia(A), A.todia()
        assert np.array_equal(lean.offsets, dia.offsets)
        assert lean.data.tobytes() == dia.data.tobytes()
    for A, dia in [(A, A.todia()) for A in banded] + [(spd, far)]:
        assert isinstance(dia, sp.dia_matrix) and np.all(np.diff(dia.offsets) > 0)
        x = rng.standard_normal(A.shape[0])
        assert np.array_equal(dia @ x, A @ x)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_lean_dia_copy_is_todia_bitwise(m, n, density, seed):
    """The package's DIA builder gives scipy's todia() of any duplicate-free
    CSR matrix: the same offsets and dtype, storage width and bits, explicit
    and negative zeros included."""
    rng = np.random.default_rng(seed)
    A = sp.random(m, n, density=density, format="csr", random_state=rng)
    A.data[rng.random(A.nnz) < 0.2] = 0.0
    A.data[rng.random(A.nnz) < 0.2] = -0.0
    got, want = _to_dia(A), A.todia()
    assert got.shape == want.shape
    assert got.offsets.dtype == want.offsets.dtype
    assert np.array_equal(got.offsets, want.offsets)
    assert got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()


def test_factor_solve_is_the_banded_solve_bitwise():
    """A solve that passes the check returns the banded solve untouched; a
    refined one adds the solve of the CSR residual."""
    sys = assemble(build_mesh(16), 5.0)
    rhs = np.random.default_rng(3).standard_normal(sys.dim)
    for A in (sys.system_matrix(0.01, 0.5), sys.M, sys.S):
        factor = Factor(A)
        assert np.array_equal(factor.solve(rhs), factor.lu.solve(rhs))
    A = sys.system_matrix(0.01, 0.5)
    factor = Factor(A)
    factor.lu = spla.splu((A + 1e-9 * sp.identity(sys.dim)).tocsc())
    x0 = factor.lu.solve(rhs)
    assert np.array_equal(factor.solve(rhs), x0 + factor.lu.solve(rhs - A @ x0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factor_rejects_a_non_finite_solution(bad):
    sys = assemble(build_mesh(8), 1.0)
    factor = Factor(sys.M)
    solve = factor.lu.solve
    factor.lu = SimpleNamespace(solve=lambda rhs: np.where(np.arange(len(rhs)) == 5, bad,
                                                           solve(rhs)))
    with pytest.raises(NumericsError, match="residual tolerance"):
        factor.solve(np.ones(sys.dim))


def test_factor_rejects_indefinite_and_non_finite():
    B = assemble(build_mesh(8), 1.0).system_matrix(0.1, 0.5)
    with pytest.raises(NumericsError, match="not positive definite"):
        Factor(-B)
    bad = B.copy()
    bad.data[len(bad.data) // 2] = np.nan
    with pytest.raises(NumericsError, match="non-finite"):
        Factor(bad)


# ---------------------------------------------------------------- norms


def test_norms_zero_vector():
    sys = assemble(build_mesh(4), 1.0)
    z = np.zeros(sys.dim)
    assert l2_norm(sys, z) == 0.0
    assert build_hierarchy(sys, 0.1, 0.5, K0=2).weighted_norm(z) == 0.0


def test_weighted_norm_reduces_to_l2_as_tau_vanishes():
    sys = assemble(build_mesh(8), 1.0)
    x = l2_project(sys, lambda x, y: (1 - x * x) * (1 - y * y))
    wn = build_hierarchy(sys, 1e-12, 0.5).weighted_norm(x)
    ln = l2_norm(sys, x)
    assert abs(wn - ln) <= 1e-5 * ln


def test_weighted_norm_definition():
    sys = assemble(build_mesh(8), 5.0)
    rng = np.random.default_rng(3)
    tau, alpha = 0.05, 0.7
    h = build_hierarchy(sys, tau, alpha)
    for _ in range(5):
        x = rng.standard_normal(sys.dim)
        gap = h.weighted_norm(x)**2 - l2_norm(sys, x)**2
        assert gap >= 0.0
        assert gap == pytest.approx(tau**alpha * (x @ (sys.S @ x)), rel=1e-12)


def test_steady_solve_second_order_in_h():
    """S u = F for a known smooth solution: L2 error drops ~4x per refinement."""
    exact = lambda x, y: (1 - x * x) * (1 - y * y)
    rhs = lambda x, y: 2.0 * (1 - y * y) + 2.0 * (1 - x * x)
    errors = []
    for K in (8, 16, 32):
        sys = assemble(build_mesh(K), 1.0)
        F = load_vector(sys.mesh, rhs)
        u = spla.splu(sys.S.tocsc()).solve(F)
        errors.append(l2_error_vs_function(sys, u, exact))
    for e0, e1 in zip(errors, errors[1:]):
        assert 3.6 <= e0 / e1 <= 4.4
