"""V-cycle hierarchy, smoothers, direct solver, contraction estimation."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import subdiff.multigrid as multigrid
from subdiff.errors import ConfigurationError, NumericsError
from subdiff.fem import Factor, FemSystem, assemble, build_mesh
from subdiff.multigrid import (DampedJacobi, DirectSolver, GaussSeidelForward,
                               GridLevel, build_hierarchy, estimate_contraction,
                               prolongation_matrix, smooth, vcycle)
from test_fem import hat_function


def surrogate_system(M, S, c_A=1.0):
    """FemSystem carrying raw matrices only (algebra-level tests)."""
    return FemSystem(mesh=None, c_A=c_A, M=sp.csr_matrix(M), S=sp.csr_matrix(S))


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
    assert [lev.system.mesh.K for lev in h.levels] == [2, 4, 8]


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
    """P'B_fP = B_c on every level pair, at any (tau, alpha)."""
    h = build_hierarchy(sys16, tau, alpha, DampedJacobi(), K0=2)
    for i, P in enumerate(h.prolongations):
        fine_B = h.levels[i + 1].B
        coarse_B = h.levels[i].B
        dev = abs((P.T @ fine_B @ P) - coarse_B).max()
        assert dev <= 1e-12 * abs(coarse_B).max()


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
    P = prolongation_matrix(coarse, fine)
    xc = np.zeros(coarse.n_interior)
    xc[coarse.interior_of_full[3 * 9 + 4]] = 1.0  # hat at coarse node (4, 3)
    hat = hat_function(coarse, 4, 3)
    pts = fine.coords[fine.full_of_interior]
    expected = hat(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(P @ xc, expected, atol=1e-14)


def test_smoother_damping_validation():
    with pytest.raises(ConfigurationError):
        DampedJacobi(omega=0.0)
    with pytest.raises(ConfigurationError):
        DampedJacobi(omega=1.5)


# ----------------------------------------------------------- V-cycle


def test_vcycle_fixed_point(hier32_gs):
    rng = np.random.default_rng(0)
    x_star = rng.standard_normal(hier32_gs.fine.B.shape[0])
    rhs = hier32_gs.fine.B @ x_star
    out = vcycle(hier32_gs, x_star, rhs)
    assert np.max(np.abs(out - x_star)) <= 1e-13 * np.max(np.abs(x_star))


def test_vcycle_strict_contraction_on_homogeneous_system(hier32_gs):
    params = estimate_contraction(hier32_gs, seed=0)
    bound = params.kappa * 1.05
    rng = np.random.default_rng(1)
    zero = np.zeros(hier32_gs.fine.B.shape[0])
    for _ in range(100):
        x0 = rng.standard_normal(len(zero))
        n0 = hier32_gs.weighted_norm(x0)
        n1 = hier32_gs.weighted_norm(vcycle(hier32_gs, x0, zero))
        assert n1 < n0
        assert n1 <= bound * n0


def test_vcycle_error_propagation_is_affine(hier32_gs):
    rng = np.random.default_rng(2)
    n = hier32_gs.fine.B.shape[0]
    x0 = rng.standard_normal(n)
    d = rng.standard_normal(n)
    diffs = []
    for rhs in (np.zeros(n), rng.standard_normal(n)):
        diffs.append(vcycle(hier32_gs, x0 + d, rhs) - vcycle(hier32_gs, x0, rhs))
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
    for cycle in range(50):
        x = vcycle(h, x, rhs)
        if h.weighted_norm(x - x_star) <= 1e-10 * n_star:
            break
    assert h.weighted_norm(x - x_star) <= 1e-10 * n_star


def test_vcycle_shape_validation(hier32_gs):
    with pytest.raises(ValueError):
        vcycle(hier32_gs, np.zeros(3), np.zeros(3))


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
    level = GridLevel(surrogate_system(D, sp.csr_matrix((3, 3))), tau=1.0,
                      alpha=0.5)
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
    level = GridLevel(surrogate_system(B, np.zeros((2, 2))), tau=1.0,
                      alpha=0.5)
    out = smooth(level, np.zeros(2), np.array([1.0, 2.0]),
                 GaussSeidelForward(), sweeps=1)
    # forward substitution: x0 = 1/2; x1 = (2 - 1*0.5)/3 = 0.5
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-15)


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


# ----------------------------------------------------------- contraction


def test_contraction_estimate_exact_solver_floor(sys32, monkeypatch):
    h = build_hierarchy(sys32, tau=0.025, alpha=0.5)
    B = h.fine.B
    solver = DirectSolver(B)

    def exact_step(hierarchy, x, rhs):
        # one "iteration" of a direct solve of Bx = 0 lands on zero
        return x - solver.solve(B @ x)

    monkeypatch.setattr(multigrid, "vcycle", exact_step)
    params = estimate_contraction(h, seed=0)
    assert params.kappa == pytest.approx(1e-12)
    assert params.c0 == 1.0


def test_gs_contracts_faster_than_jacobi(hier32_gs, hier32_jac):
    gs = estimate_contraction(hier32_gs, seed=0)
    jac = estimate_contraction(hier32_jac, seed=0)
    assert 0.0 < gs.kappa < jac.kappa < 1.0
    assert gs.c0 >= 1.0 and jac.c0 >= 1.0


def test_non_contracting_iteration_raises(hier32_gs, monkeypatch):
    monkeypatch.setattr(multigrid, "vcycle", lambda h, x, rhs: 1.1 * x)
    with pytest.raises(NumericsError):
        estimate_contraction(hier32_gs, seed=0)


def test_non_finite_probe_raises(hier32_gs, monkeypatch):
    # a NaN after the first cycle must not read as perfect contraction
    monkeypatch.setattr(multigrid, "vcycle", lambda h, x, rhs: np.full_like(x, np.nan))
    with pytest.raises(NumericsError):
        estimate_contraction(hier32_gs, seed=0)


def two_pass_contraction(h, trials=5, cycles=8, seed=0):
    """The two-pass probe that the one-pass estimate_contraction replaced,
    kept as its oracle: kappa from per-trial norm lists, then c0 from a
    second pass over the stored lists."""
    dim = h.fine.B.shape[0]
    zero = np.zeros(dim)
    rng = np.random.default_rng(seed)
    kappa = 0.0
    histories = []
    for _ in range(trials):
        x = rng.standard_normal(dim)
        n0 = h.weighted_norm(x)
        norms = [n0]
        for _ in range(cycles):
            x = multigrid.vcycle(h, x, zero)
            norms.append(h.weighted_norm(x))
        histories.append(norms)
        floor = 1e-12 * n0
        for m in range(2, cycles + 1):
            if norms[m - 1] > floor:
                kappa = max(kappa, norms[m] / norms[m - 1])
    assert kappa < 1.0
    kappa = max(kappa, 1e-12)
    c0 = 1.0
    for norms in histories:
        n0 = norms[0]
        if n0 == 0.0:
            continue
        for m in range(1, cycles + 1):
            if norms[m] > 1e-12 * n0:
                c0 = max(c0, (norms[m] / n0) / kappa ** m)
    return c0, kappa


@pytest.mark.parametrize("smoother", [GaussSeidelForward(), DampedJacobi(),
                                      DampedJacobi(omega=1.0)], ids=lambda s: repr(s))
@pytest.mark.parametrize("tau, alpha", [(0.1, 0.2), (1.0 / 320, 0.8)])
def test_contraction_matches_two_pass_oracle(sys32, smoother, tau, alpha):
    h = build_hierarchy(sys32, tau, alpha, smoother)
    for seed in (0, 3):
        params = estimate_contraction(h, seed=seed)
        assert (params.c0, params.kappa) == two_pass_contraction(h, seed=seed)


@pytest.mark.parametrize("scale", [{0: 30.0}, {1: 1e-13, 2: 5e14}],
                         ids=["grow-first", "drop-below-floor-and-revive"])
def test_contraction_matches_two_pass_oracle_above_c0_floor(hier32_gs, hier32_jac,
                                                            monkeypatch, scale):
    """Cycles scaled by scale[k] at the k-th cycle of each start give c0 > 1:
    growing the first cycle 30-fold puts c0 at m = 1; dropping a norm below
    the 1e-12 floor and reviving it puts c0 at m = 3, where kappa**3 must be
    Python's pow.  Both probes must agree bit for bit."""
    real = multigrid.vcycle

    def patch():
        calls = itertools.count()

        def cycle(h, x, rhs):
            return scale.get(next(calls) % multigrid.PROBE_CYCLES, 1.0) * real(h, x, rhs)
        monkeypatch.setattr(multigrid, "vcycle", cycle)

    for h in (hier32_gs, hier32_jac):
        for seed in range(5):
            patch()
            params = estimate_contraction(h, seed=seed)
            patch()
            assert (params.c0, params.kappa) == two_pass_contraction(h, seed=seed)
            assert params.c0 > 1.0
