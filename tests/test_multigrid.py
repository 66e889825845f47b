"""V-cycle hierarchy, smoothers, the lean cycle against the plain one, direct
solver, the cycle's contraction norm."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import subdiff.multigrid as multigrid
from subdiff.errors import ConfigurationError, NumericsError
from subdiff.fem import Factor, assemble, build_mesh
from subdiff.multigrid import (DampedJacobi, DirectSolver, GaussSeidelForward,
                               GridLevel, MgHierarchy, build_hierarchy,
                               prolongation_matrix, smooth, vcycle)
from test_fem import hat_function


@pytest.fixture(scope="module")
def sys16():
    return assemble(build_mesh(16), 5.0)


@pytest.fixture(scope="module")
def sys32():
    return assemble(build_mesh(32), 5.0)


@pytest.fixture(scope="module")
def hier32_gs(sys32):
    return build_hierarchy(sys32, tau=0.01, alpha=0.5, smoother=GaussSeidelForward())


@pytest.fixture(scope="module")
def hier32_jac(sys32):
    return build_hierarchy(sys32, tau=0.01, alpha=0.5, smoother=DampedJacobi())


# ----------------------------------------------------------- hierarchy


def test_level_count():
    sys = assemble(build_mesh(8), 1.0)
    h = build_hierarchy(sys, 0.1, 0.5, GaussSeidelForward(), K0=2)
    assert h.n_levels == 3
    assert [lev.B.shape[0] for lev in h.levels] == [1, 9, 49]  # K = 2, 4, 8


def test_incompatible_K_rejected():
    sys = assemble(build_mesh(6), 1.0)
    with pytest.raises(ConfigurationError):
        build_hierarchy(sys, 0.1, 0.5, GaussSeidelForward(), K0=4)
    sys4 = assemble(build_mesh(4), 1.0)
    with pytest.raises(ConfigurationError):
        build_hierarchy(sys4, 0.1, 0.5, GaussSeidelForward(), K0=4)  # L = 0


def test_fractional_sweep_counts_rejected():
    sys = assemble(build_mesh(8), 1.0)
    for nu1, nu2 in ((1.5, 1), (1, 0.5), (1.7, 0.5)):
        with pytest.raises(ConfigurationError):
            build_hierarchy(sys, 0.1, 0.5, GaussSeidelForward(), nu1=nu1, nu2=nu2)


@settings(max_examples=25, deadline=None)
@given(tau=st.floats(1e-4, 1.0), alpha=st.floats(0.05, 0.95))
def test_galerkin_coarse_operator_identity(sys16, tau, alpha):
    """Each level's Galerkin product is its mesh's re-assembled M + tau^alpha S,
    at any (tau, alpha)."""
    h = build_hierarchy(sys16, tau, alpha, DampedJacobi(), K0=2)
    for K, level in zip(multigrid.level_sizes(16, 2), h.levels):
        B = assemble(build_mesh(K), sys16.c_A).system_matrix(tau, alpha)
        assert abs(level.B - B).max() <= 1e-12 * abs(B).max()


def test_cached_restriction_and_raw_coarse_solve(sys16):
    """The stored restrictions act as P' bit for bit, and the unchecked
    coarse solve agrees with the checked one."""
    h = build_hierarchy(sys16, 0.01, 0.5, K0=4)
    rng = np.random.default_rng(5)
    for P, R in zip(h.prolongations, h.restrictions):
        r = rng.standard_normal(P.shape[0])
        assert np.array_equal(R @ r, P.T @ r)
    rhs = rng.standard_normal(h.levels[0].B.shape[0])
    checked = Factor(h.levels[0].B).solve(rhs)
    np.testing.assert_allclose(h.coarse_lu.solve(rhs), checked, rtol=1e-13)


def test_prolongation_reproduces_coarse_hat():
    coarse = build_mesh(8)
    fine = build_mesh(16)
    P = prolongation_matrix(8)
    xc = np.zeros(coarse.n_interior)
    xc[coarse.interior_of_full[3 * 9 + 4]] = 1.0  # hat at coarse node (4, 3)
    hat = hat_function(coarse, 4, 3)
    pts = fine.coords[np.flatnonzero(fine.interior_of_full >= 0)]
    expected = hat(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(P @ xc, expected, atol=1e-14)


def test_smoother_damping_validation():
    with pytest.raises(ConfigurationError):
        DampedJacobi(omega=0.0)
    with pytest.raises(ConfigurationError):
        DampedJacobi(omega=1.5)


# ----------------------------------------------------------- V-cycle


def cycle(h, x, rhs):
    """One V-cycle's new iterate, from x and its residual by the product."""
    return vcycle(h, x, rhs, rhs - h.fine.B @ x)[0]


def test_vcycle_fixed_point(hier32_gs):
    rng = np.random.default_rng(0)
    x_star = rng.standard_normal(hier32_gs.fine.B.shape[0])
    rhs = hier32_gs.fine.B @ x_star
    out = cycle(hier32_gs, x_star, rhs)
    assert np.max(np.abs(out - x_star)) <= 1e-13 * np.max(np.abs(x_star))


def test_vcycle_strict_contraction_on_homogeneous_system(hier32_gs):
    bound = hier32_gs.kappa * (1.0 + 1e-10)
    rng = np.random.default_rng(1)
    zero = np.zeros(hier32_gs.fine.B.shape[0])
    for _ in range(100):
        x0 = rng.standard_normal(len(zero))
        n0 = hier32_gs.weighted_norm(x0)
        n1 = hier32_gs.weighted_norm(cycle(hier32_gs, x0, zero))
        assert n1 < n0
        assert n1 <= bound * n0


def test_vcycle_error_propagation_is_affine(hier32_gs):
    rng = np.random.default_rng(2)
    n = hier32_gs.fine.B.shape[0]
    x0 = rng.standard_normal(n)
    d = rng.standard_normal(n)
    diffs = []
    for rhs in (np.zeros(n), rng.standard_normal(n)):
        diffs.append(cycle(hier32_gs, x0 + d, rhs) - cycle(hier32_gs, x0, rhs))
    scale = np.max(np.abs(diffs[0]))
    assert np.max(np.abs(diffs[0] - diffs[1])) <= 1e-12 * scale


def test_vcycle_driven_to_tolerance_K64():
    sys = assemble(build_mesh(64), 5.0)
    # tau^alpha = 0.1
    h = build_hierarchy(sys, tau=0.01, alpha=0.5, smoother=GaussSeidelForward())
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(sys.dim)
    rhs = h.fine.B @ x_star
    x = np.zeros(sys.dim)
    n_star = h.weighted_norm(x_star)
    for _ in range(50):
        x = cycle(h, x, rhs)
        if h.weighted_norm(x - x_star) <= 1e-10 * n_star:
            break
    assert h.weighted_norm(x - x_star) <= 1e-10 * n_star


def test_vcycle_shape_validation(hier32_gs):
    n = hier32_gs.fine.B.shape[0]
    for lengths in ((3, 3, 3), (n, n, 3), (n, 3, n)):
        with pytest.raises(ValueError):
            vcycle(hier32_gs, *(np.zeros(k) for k in lengths))
    # a sweep's product with a short vector raises, as scipy's @ did
    for kind in (GaussSeidelForward(), GaussSeidelForward().adjoint(), DampedJacobi()):
        with pytest.raises(ValueError, match="length"):
            smooth(hier32_gs.fine, np.zeros(n - 1), np.zeros(n), kind)


# ----------------------------------------------------------- smoothers


def test_smoothers_fix_exact_solution(hier32_gs, hier32_jac):
    for h in (hier32_gs, hier32_jac):
        level = h.fine
        rng = np.random.default_rng(4)
        x_star = rng.standard_normal(level.B.shape[0])
        rhs = level.B @ x_star
        out = smooth(level, x_star, rhs, h.smoother, sweeps=2)
        assert np.max(np.abs(out - x_star)) <= 1e-12 * np.max(np.abs(x_star))


def test_jacobi_on_diagonal_system_contracts_by_one_third():
    D = sp.diags([2.0, 3.0, 4.0]).tocsr()
    level = GridLevel(D)
    x_star = np.array([1.0, -2.0, 0.5])
    rhs = D @ x_star
    x = np.zeros(3)
    err = x_star - x
    for _ in range(3):
        x = smooth(level, x, rhs, DampedJacobi(omega=2.0 / 3.0), sweeps=1)
        new_err = x_star - x
        np.testing.assert_allclose(new_err, err / 3.0, rtol=1e-14)
        err = new_err


def test_gauss_seidel_matches_hand_sweep():
    B = np.array([[2.0, 1.0], [1.0, 3.0]])
    level = GridLevel(sp.csr_matrix(B))
    out = smooth(level, np.zeros(2), np.array([1.0, 2.0]),
                 GaussSeidelForward(), sweeps=1)
    # forward substitution: x0 = 1/2; x1 = (2 - 1*0.5)/3 = 0.5
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-15)


@pytest.mark.parametrize("kind", [GaussSeidelForward(), GaussSeidelForward().adjoint(),
                                  DampedJacobi()], ids=["gs", "gs-backward", "jacobi"])
def test_each_smoother_reports_its_sweeps_residual(sys32, kind):
    """residual(level, rhs, x_in, x_out) is rhs - B x_out for the sweep from
    x_in (None: the zero guess) to 1e-13 of its size, on the fine level and
    on a Galerkin coarse level, which is not exactly symmetric."""
    h = build_hierarchy(sys32, 1.0 / 320, 0.5)
    rng = np.random.default_rng(12)
    for level in (h.fine, h.levels[-2]):
        n = level.B.shape[0]
        for x_in in (None, rng.standard_normal(n)):
            rhs = rng.standard_normal(n)
            x_out = smooth(level, x_in, rhs, kind, 1)
            want = rhs - level.B @ x_out
            got = kind.residual(level, rhs, x_in, x_out)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class CountingProducts:
    """Stands in for a sparse operator: counts the cycle's kernel products
    with it, and any product by ``@`` apart."""

    def __init__(self, A, name, tally):
        self.A, self.name, self.tally = A, name, tally

    def __getattr__(self, attr):
        return getattr(self.A, attr)

    def __matmul__(self, x):
        self.tally.append("@" + self.name)
        return self.A @ x


def test_gs_cycle_multiplies_no_level_by_its_full_operator(sys32, monkeypatch):
    """A GS V(1,1) cycle takes products with each level's strict upper
    triangle only: three on the finest level (the pre-smoothing residual,
    the post-smoothing sweep and its residual), two on each level below it
    and none with any level's B, beside one restriction and one prolongation
    per level above the coarsest; the correction norm that run_iis takes from
    the carried residuals adds none."""
    h = build_hierarchy(sys32, 1.0 / 320, 0.5)
    rng = np.random.default_rng(13)
    x, rhs = rng.standard_normal((2, h.fine.B.shape[0]))
    r = rhs - h.fine.B @ x
    tally, product = [], multigrid._product

    def counted(A, v):
        tally.append(A.name)
        return product(A.A, v)

    monkeypatch.setattr(multigrid, "_product", counted)
    for k, level in enumerate(h.levels[1:], 1):
        monkeypatch.setattr(level, "B", CountingProducts(level.B, f"B{k}", tally))
        monkeypatch.setattr(level, "upper", CountingProducts(level.upper, f"U{k}", tally))
    for attr, name in (("restrictions", "R"), ("prolongations", "P")):
        monkeypatch.setattr(h, attr, [CountingProducts(A, f"{name}{k}", tally)
                                      for k, A in enumerate(getattr(h, attr), 1)])
    x_next, r_next = vcycle(h, x, rhs, r)
    h.weighted_norm(x_next - x, r - r_next)
    top = h.n_levels - 1
    want = [f"U{top}"] * 3 + [f"U{k}" for k in range(1, top)] * 2
    want += [f"{name}{k}" for name in "RP" for k in range(1, top + 1)]
    assert sorted(tally) == sorted(want)


# ----------------------------------------------------------- lean cycle vs plain


class PlainLevel:
    """A level as first written: CSR products and a factor of L = tril(B)."""

    def __init__(self, B):
        self.B, self.diag = B, B.diagonal()
        self.upper = sp.triu(B, 1).tocsr()
        self.lower = splu(sp.tril(B, 0).tocsc(), permc_spec="NATURAL")


def plain_sweep(kind, level, x, rhs):
    if isinstance(kind, DampedJacobi):
        return x + kind.omega * (rhs - level.B @ x) / level.diag
    if isinstance(kind, GaussSeidelForward):
        return level.lower.solve(rhs - level.upper @ x)
    return x + level.lower.solve(rhs - level.B @ x, trans="T")  # backward


def plain_cycle(h, levels, lvl, x, rhs):
    """The oracle V-cycle: explicit zero guesses on the coarse levels."""
    if lvl == 0:
        return h.coarse_lu.solve(rhs)
    level = levels[lvl]
    for _ in range(h.nu1):
        x = plain_sweep(h.smoother, level, x, rhs)
    R, P = h.restrictions[lvl - 1], h.prolongations[lvl - 1]
    coarse_err = plain_cycle(h, levels, lvl - 1, np.zeros(R.shape[0]),
                             R @ (rhs - level.B @ x))
    x = x + P @ coarse_err
    for _ in range(h.nu2):
        x = plain_sweep(h.smoother, level, x, rhs)
    return x


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([8, 16]), tau=st.floats(1e-4, 1.0), alpha=st.floats(0.05, 0.95),
       smoother=st.sampled_from(["gs", "gs-backward", "jacobi", "jacobi-1"]),
       nu=st.sampled_from([(1, 1), (0, 1), (1, 0), (2, 1)]),
       zero_guess=st.booleans(), seed=st.integers(0, 2**16))
def test_lean_cycle_matches_plain_oracle(small_systems, K, tau, alpha, smoother, nu,
                                         zero_guess, seed):
    """The lean cycle (kernel products, zero guesses no sweep multiplies,
    first sweeps from the carried residual, residuals from the sweeps'
    identities) leaves Jacobi cycles bitwise the oracle's; GS solves with
    another factor of tril(B), so it agrees to 1e-14 in the B-norm after
    every cycle.  The residual it carries is rhs - B x to 1e-13 of
    |B| |x| + |rhs|, and Jacobi's bitwise."""
    kind = {"gs": GaussSeidelForward(), "gs-backward": GaussSeidelForward(),
            "jacobi": DampedJacobi(), "jacobi-1": DampedJacobi(omega=1.0)}[smoother]
    h = build_hierarchy(small_systems[K], tau, alpha, kind, *nu)
    if smoother == "gs-backward":
        h = adjoint_hierarchy(h)
    levels = [PlainLevel(level.B.tocsr()) for level in h.levels]
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(h.fine.B.shape[0])
    x = y = np.zeros(len(rhs)) if zero_guess else rng.standard_normal(len(rhs))
    B = levels[-1].B
    r = rhs - B @ x
    for cycles in range(1, 6):
        x, r = vcycle(h, x, rhs, r)
        y = plain_cycle(h, levels, h.n_levels - 1, y, rhs)
        scale = abs(B).max() * np.abs(x).max() + np.abs(rhs).max()
        assert np.max(np.abs(r - (rhs - B @ x))) <= 1e-13 * scale
        if smoother.startswith("jacobi"):
            assert np.array_equal(x, y)
            assert np.array_equal(r, rhs - B @ x)
        else:
            assert h.weighted_norm(x - y) <= 1e-14 * h.weighted_norm(y)


@pytest.mark.parametrize("K", [8, 16, 32])
def test_dia_products_are_csr_products_bitwise(K):
    """Each level holds its operator once, in DIA storage, and its products
    with B and with the strict upper triangle, by ``@`` and by the cycle's
    kernel calls, are those of the Galerkin CSR products, bit for bit; so
    are the kernel products with P and P'."""
    sys = assemble(build_mesh(K), 5.0)
    h = build_hierarchy(sys, 0.01, 0.5, K0=2)
    Bs = [sys.system_matrix(0.01, 0.5)]
    for P in h.prolongations[::-1]:
        Bs.append((P.T @ Bs[-1] @ P).tocsr())
    rng = np.random.default_rng(K)
    for level, csr in zip(h.levels, Bs[::-1]):
        assert all(v.format == "dia" for v in vars(level).values() if sp.issparse(v))
        assert isinstance(level.B, sp.dia_matrix)
        dia = csr.todia()  # the level's copy is scipy's, offsets and storage
        assert level.B.offsets.dtype == dia.offsets.dtype
        assert np.array_equal(level.B.offsets, dia.offsets)
        assert level.B.data.shape == dia.data.shape
        assert level.B.data.tobytes() == dia.data.tobytes()
        assert Factor(level.B).A is level.B  # shared, not copied
        # one array per level: the triangle and the diagonal view B's rows
        assert np.array_equal(level.diag, csr.diagonal())
        assert np.shares_memory(level.diag, level.B.data)
        assert level.upper.data.size == 0 or np.shares_memory(level.upper.data,
                                                              level.B.data)
        for dia, ref in ((level.B, csr), (level.upper, sp.triu(csr, 1).tocsr())):
            assert np.all(np.diff(dia.offsets) > 0)
            x = rng.standard_normal(csr.shape[0])
            assert np.array_equal(dia @ x, ref @ x)
            assert np.array_equal(multigrid._product(dia, x), ref @ x)
    for A in h.prolongations + h.restrictions:
        x = rng.standard_normal(A.shape[1])
        assert np.array_equal(multigrid._product(A, x), A @ x)


def test_hierarchy_holds_little_beyond_its_operators():
    """At K=64 the live bytes a hierarchy adds stay within 1.25 times its DIA
    operators plus the arrays of P and P': a second copy of each operator,
    as CSR, would add about 1.5 times as much again."""
    sys = assemble(build_mesh(64), 5.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        h = build_hierarchy(sys, 1.0 / 320, 0.5)
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    ops = sum(level.B.data.nbytes for level in h.levels)
    grid = sum(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
               for A in h.prolongations + h.restrictions)
    assert live <= 1.25 * (ops + grid)


def test_sweeps_on_a_galerkin_level_are_triangular_solves(sys16):
    """On a (not exactly symmetric) Galerkin coarse level the forward sweep
    from zero solves tril(B) x = c and the backward one tril(B)' x = c."""
    h = build_hierarchy(sys16, 0.01, 0.5, K0=2)
    level = h.levels[-2]
    L = np.tril(level.B.toarray())
    c = np.random.default_rng(8).standard_normal(len(L))
    for kind, T, lower in ((GaussSeidelForward(), L, True),
                           (GaussSeidelForward().adjoint(), L.T, False)):
        x = smooth(level, None, c, kind, 1)
        ref = sla.solve_triangular(T, c, lower=lower)
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_zero_guess_sweeps_equal_sweeps_from_zeros(hier32_gs):
    level = hier32_gs.levels[-2]
    rhs = np.random.default_rng(9).standard_normal(level.B.shape[0])
    zero = np.zeros(len(rhs))
    for kind in (GaussSeidelForward(), GaussSeidelForward().adjoint(), DampedJacobi(),
                 DampedJacobi(omega=1.0)):
        for sweeps in (1, 2):
            assert np.array_equal(smooth(level, None, rhs, kind, sweeps),
                                  smooth(level, zero, rhs, kind, sweeps))


# ----------------------------------------------------------- direct solver


def test_direct_solve_zero_rhs():
    sys = assemble(build_mesh(8), 1.0)
    B = sys.system_matrix(0.1, 0.5)
    assert np.all(DirectSolver(B).solve(np.zeros(sys.dim)) == 0.0)


def gaussian_elimination(A, b):
    """Plain elimination with partial pivoting, as an independent oracle."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for k in range(n):
        p = k + np.argmax(np.abs(A[k:, k]))
        A[[k, p]] = A[[p, k]]
        b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = A[i, k] / A[k, k]
            A[i, k:] -= f * A[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1:] @ x[i + 1:]) / A[i, i]
    return x


def test_direct_solve_matches_elimination_oracle():
    rng = np.random.default_rng(5)
    R = rng.standard_normal((5, 5))
    A = R @ R.T + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    x = DirectSolver(sp.csr_matrix(A)).solve(b)
    np.testing.assert_allclose(x, gaussian_elimination(A, b), rtol=1e-12)


def test_direct_solver_residual_K64():
    sys = assemble(build_mesh(64), 5.0)
    B = sys.system_matrix(1.0 / 40.0, 0.5)
    solver = DirectSolver(B)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(sys.dim)
    x = solver.solve(rhs)
    assert np.linalg.norm(rhs - B @ x) <= 1e-12 * np.linalg.norm(rhs)


def test_direct_solver_is_the_factor_under_its_own_name(sys16):
    """A Factor with __init__ and solve in its own class body, where perfbench's
    tracer patches them to count the stepper's solves; its solve is Factor's."""
    assert issubclass(DirectSolver, Factor)
    assert {"__init__", "solve"} <= set(vars(DirectSolver))
    B = sys16.system_matrix(1.0 / 40.0, 0.5)
    rhs = np.random.default_rng(7).standard_normal(sys16.dim)
    assert np.array_equal(DirectSolver(B).solve(rhs), Factor(B).solve(rhs))


# ----------------------------------------------------------- cycle norm


def adjoint_hierarchy(h):
    """The hierarchy whose V-cycle is the B-adjoint E* of h's cycle E."""
    return MgHierarchy(h.levels, h.prolongations, h.coarse_lu,
                       h.smoother.adjoint(), h.nu2, h.nu1)


@pytest.fixture(scope="module")
def small_systems():
    return {K: assemble(build_mesh(K), 5.0) for K in (8, 16)}


_smoothers = st.sampled_from([GaussSeidelForward(), DampedJacobi(),
                              DampedJacobi(omega=1.0)])


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([8, 16]), tau=st.floats(1e-4, 1.0), alpha=st.floats(0.05, 0.95),
       smoother=_smoothers, nu=st.sampled_from([(1, 1), (2, 0), (0, 1), (1, 2), (2, 2)]),
       seed=st.integers(0, 2**16))
def test_adjoint_cycle_is_the_b_adjoint(small_systems, K, tau, alpha, smoother, nu, seed):
    """<E x, y>_B = <x, E* y>_B, with E* the cycle of adjoint sweeps and
    swapped sweep counts."""
    h = build_hierarchy(small_systems[K], tau, alpha, smoother, *nu)
    adj = adjoint_hierarchy(h)
    B = h.fine.B
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, B.shape[0]))
    zero = np.zeros(B.shape[0])
    lhs = cycle(h, x, zero) @ (B @ y)
    rhs = x @ (B @ cycle(adj, y, zero))
    assert abs(lhs - rhs) <= 1e-12 * h.weighted_norm(x) * h.weighted_norm(y)


@pytest.mark.parametrize("kind", [GaussSeidelForward(), DampedJacobi()],
                         ids=["gs", "jacobi"])
def test_kappa_matches_lanczos_on_plain_cycles(sys32, kind):
    """kappa (K=32, tau = 1/320, alpha = 0.8), ARPACK's Arnoldi iteration on
    E*E x from residual-carrying cycles, is to 1e-10 the top eigenvalue of
    the generalized problem B E*E x = lam B x, solved by Lanczos with a
    factor of B on products from the plain cycles, which multiply by B for
    every residual."""
    h = build_hierarchy(sys32, 1.0 / 320, 0.8, kind)
    adj = adjoint_hierarchy(h)
    levels = [PlainLevel(level.B.tocsr()) for level in h.levels]
    B, top = h.fine.B, h.n_levels - 1
    zero = np.zeros(B.shape[0])

    def apply(x):
        return B @ plain_cycle(adj, levels, top, plain_cycle(h, levels, top, x, zero), zero)

    op = spla.LinearOperator(B.shape, matvec=apply, dtype=float)
    inv = spla.LinearOperator(B.shape, matvec=Factor(B).solve, dtype=float)
    v0 = np.random.default_rng(multigrid.KAPPA_SEED).standard_normal(B.shape[0])
    lam = spla.eigsh(op, k=1, M=B, Minv=inv, which="LA", v0=v0, tol=1e-10,
                     return_eigenvectors=False)[0]
    assert h.kappa == pytest.approx(np.sqrt(lam), rel=1e-10)


def dense_cycle_norm(h):
    """|R E R^-1|_2 with B = R'R, from the cycle's dense error propagation."""
    B = h.fine.B.toarray()
    zero = np.zeros(len(B))
    E = np.column_stack([cycle(h, e, zero) for e in np.eye(len(B))])
    R = sla.cholesky(B)
    return np.linalg.norm(R @ E @ np.linalg.inv(R), 2)


@pytest.mark.parametrize("smoother", [GaussSeidelForward(), DampedJacobi(),
                                      DampedJacobi(omega=1.0)], ids=lambda s: repr(s))
@pytest.mark.parametrize("tau, alpha", [(0.1, 0.2), (1.0 / 320, 0.8), (1.0 / 5120, 0.5)])
@pytest.mark.parametrize("K", [8, 16])
def test_cycle_norm_matches_dense_oracle(small_systems, K, tau, alpha, smoother):
    for nu1, nu2 in ((1, 1), (2, 0), (0, 1)):
        h = build_hierarchy(small_systems[K], tau, alpha, smoother, nu1, nu2)
        assert h.kappa == pytest.approx(dense_cycle_norm(h), rel=1e-8)


def test_cycle_norm_bounds_every_one_cycle_ratio(hier32_gs, hier32_jac):
    """No start, random or pushed towards the worst case by steps of the
    power iteration on E*E, shrinks by less than kappa in one cycle."""
    rng = np.random.default_rng(7)
    for h in (hier32_gs, hier32_jac):
        kappa, adj = h.kappa, adjoint_hierarchy(h)
        zero = np.zeros(h.fine.B.shape[0])
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal(len(zero))
            for _ in range(5):
                worst = max(worst, h.weighted_norm(cycle(h, x, zero)) / h.weighted_norm(x))
                x = cycle(adj, cycle(h, x, zero), zero)
        assert worst <= kappa * (1.0 + 1e-10)
        assert worst >= 0.9 * kappa  # the worst start found comes close


def test_contraction_estimate_exact_solver_floor(sys32, monkeypatch):
    h = build_hierarchy(sys32, tau=0.025, alpha=0.5)
    B = h.fine.B
    solver = DirectSolver(B)

    def exact_step(hierarchy, x, rhs, r):
        # one "iteration" of a direct solve of Bx = 0 lands on zero
        x = x + solver.solve(r)
        return x, rhs - B @ x

    monkeypatch.setattr(multigrid, "vcycle", exact_step)
    assert 0.0 < h.kappa < 1e-12


def test_gs_contracts_faster_than_jacobi(hier32_gs, hier32_jac):
    assert 0.0 < hier32_gs.kappa < hier32_jac.kappa < 1.0


def fresh(h):
    """A copy of h that has not computed its kappa yet (the fixtures' copies
    keep the kappa an earlier test read)."""
    return MgHierarchy(h.levels, h.prolongations, h.coarse_lu, h.smoother, h.nu1, h.nu2)


def test_cycle_norm_is_deterministic_per_seed(hier32_gs, monkeypatch):
    """kappa's Arnoldi start vector comes from a fixed seed: two hierarchies
    with the same operators read the same kappa to the last bit, and one
    computes it once. Another start vector converges to the same top
    eigenvalue."""
    a, b = fresh(hier32_gs), fresh(hier32_gs)
    assert a.kappa == b.kappa == hier32_gs.kappa
    assert a.kappa is a.kappa
    monkeypatch.setattr(multigrid, "KAPPA_SEED", 3)
    assert fresh(hier32_gs).kappa == pytest.approx(hier32_gs.kappa, rel=1e-8)


def test_kappa_adjoint_shares_the_transfers(hier32_gs, monkeypatch):
    """kappa's adjoint cycle runs on the forward hierarchy's own levels,
    prolongations and restrictions: it transposes nothing again."""
    h = fresh(hier32_gs)
    seen, cycle_once = [], multigrid.vcycle

    def recorded(hierarchy, *args):
        seen.append(hierarchy)
        return cycle_once(hierarchy, *args)

    monkeypatch.setattr(multigrid, "vcycle", recorded)
    assert 0.0 < h.kappa < 1.0
    adjoints = [a for a in seen if a is not h]
    assert adjoints
    for a in adjoints:
        assert isinstance(a.smoother, type(h.smoother.adjoint()))
        assert (a.nu1, a.nu2) == (h.nu2, h.nu1)
        assert a.levels is h.levels
        assert a.prolongations is h.prolongations
        assert a.restrictions is h.restrictions


def test_kappa_factors_nothing(hier32_gs, monkeypatch):
    """kappa needs no solve with B: computing it constructs no Factor."""
    made, init = [], Factor.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Factor, "__init__", counted)
    assert 0.0 < fresh(hier32_gs).kappa < 1.0
    assert made == []


def test_complex_top_eigenvalue_raises(hier32_gs, monkeypatch):
    """E*E is B-self-adjoint, so an ARPACK value with a non-negligible
    imaginary part means a broken cycle, not a contraction."""
    monkeypatch.setattr(multigrid.spla, "eigs", lambda *args, **kwargs: np.array([0.25 + 0.01j]))
    with pytest.raises(NumericsError, match="not contracting"):
        fresh(hier32_gs).kappa


def test_non_contracting_iteration_raises(hier32_gs, monkeypatch):
    monkeypatch.setattr(multigrid, "vcycle", lambda h, x, rhs, r: (1.1 * x, 1.1 * r))
    with pytest.raises(NumericsError, match="not contracting"):
        fresh(hier32_gs).kappa


def test_non_finite_probe_raises(hier32_gs, monkeypatch):
    # the cycle's own finiteness check raises, before any direct solve sees a NaN
    monkeypatch.setattr(multigrid, "vcycle",
                        lambda h, x, rhs, r: (np.full_like(x, np.nan),) * 2)
    with pytest.raises(NumericsError, match="V-cycle produced a non-finite value"):
        fresh(hier32_gs).kappa
