"""Time stepping: right-hand sides, schedules, trajectories, error reports."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import subdiff.stepping as stepping
from subdiff.bench import example_problem
from subdiff.cq import HISTORY_BLOCK, TimeGrid, gen_weights, rl_integral_oracle
from subdiff.errors import ConfigurationError, NumericsError
from subdiff.fem import FemSystem, assemble, build_mesh, l2_norm
from subdiff.multigrid import (ContractionParams, DirectSolver,
                               GaussSeidelForward, build_hierarchy,
                               estimate_contraction)
from subdiff.stepping import (ExactSchedule, FixedIterations, L2Projected,
                              LoadSource, LogSchedule, PointwiseSource,
                              ProblemSpec, SeparableSource, TheoryNonsmoothData,
                              TheorySmoothData, ZeroInit, error_report,
                              run_exact, run_iis, schedule_iters, step_rhs,
                              write_trajectory_csv)


class NodalInit:
    """Test helper: start a trajectory from an explicit nodal vector."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def vector(self, sys):
        return self.vec.copy()


def scalar_system(lam=0.0):
    """1x1 surrogate: M = [1], S = [lam]; isolates the CQ recursion."""
    return FemSystem(mesh=None, c_A=1.0,
                     M=sp.csr_matrix(np.array([[1.0]])),
                     S=sp.csr_matrix(np.array([[lam]])))


def scalar_spec(alpha, N, lam=0.0, beta=None, u0=0.0, T=1.0):
    source = None
    if beta is not None:
        source = LoadSource(lambda t: np.array([t**beta]))
    initial = NodalInit([u0]) if u0 else ZeroInit()
    return ProblemSpec(alpha=alpha, grid=TimeGrid(T=T, N=N),
                       sys=scalar_system(lam), initial=initial, source=source)


# ------------------------------------------------------------- step_rhs


def test_step_rhs_zero_data():
    sys = assemble(build_mesh(4), 1.0)
    spec = ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=8), sys=sys)
    table = gen_weights(0.5, 8)
    r = step_rhs(spec, table, np.zeros((1, sys.dim)), None)
    assert np.all(r == 0.0)


def test_step_rhs_steady_history_collapses_to_mass_product():
    sys = assemble(build_mesh(4), 2.0)
    spec = ProblemSpec(alpha=0.3, grid=TimeGrid(T=1.0, N=10), sys=sys)
    table = gen_weights(0.3, 10)
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(sys.dim)
    history = np.tile(u0, (5, 1))  # U^j = U^0 for all j < 5
    r = step_rhs(spec, table, history, None)
    np.testing.assert_allclose(r, sys.M @ u0, rtol=1e-13)


def test_step_rhs_validation():
    sys = assemble(build_mesh(4), 1.0)
    spec = ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=3), sys=sys)
    short = gen_weights(0.5, 1)
    with pytest.raises(ValueError):
        step_rhs(spec, short, np.zeros((3, sys.dim)), None)
    with pytest.raises(ValueError):
        step_rhs(spec, gen_weights(0.5, 5), np.zeros((2, sys.dim + 1)), None)


def test_run_exact_matches_step_rhs_loop_across_lag_blocks():
    """run_exact's lag-blocked history against a plain loop of step_rhs and
    direct solves, at every step of a run spanning three blocks."""
    sys = assemble(build_mesh(8), 5.0)
    N = 2 * HISTORY_BLOCK + 3
    spec = example_problem(1, sys, 0.5, N)
    traj = run_exact(spec)
    table = gen_weights(spec.alpha, N)
    solver = DirectSolver(sys.system_matrix(spec.grid.tau, spec.alpha))
    U = np.zeros((N + 1, sys.dim))
    for n in range(1, N + 1):
        load = spec.source.load_at(sys, n * spec.grid.tau)
        U[n] = solver.solve(step_rhs(spec, table, U[:n], load))
    scale = np.abs(U).max()
    assert scale > 0.0
    assert np.abs(traj.U - U).max() <= 1e-12 * scale


# ------------------------------------------------------------- schedules


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        FixedIterations(m=0)
    with pytest.raises(ConfigurationError):
        FixedIterations(m=2, exact_startup_steps=0)
    with pytest.raises(ConfigurationError):
        LogSchedule(a=0, b=0)
    with pytest.raises(ConfigurationError):
        LogSchedule(a=-1, b=2)
    params = ContractionParams(c0=1.0, kappa=0.5)
    with pytest.raises(ConfigurationError):
        TheorySmoothData(delta=0.0, params=params)
    with pytest.raises(ConfigurationError):
        TheoryNonsmoothData(delta=1.0, params=params)
    with pytest.raises(ConfigurationError):
        ContractionParams(c0=0.5, kappa=0.5)
    with pytest.raises(ConfigurationError):
        ContractionParams(c0=2.0, kappa=1.0)


def test_schedule_iters_fixed_and_log():
    fixed = FixedIterations(m=3)
    assert schedule_iters(fixed, 5, 0.5, 0.1, 0.5) == 3
    log = LogSchedule(a=3, b=6)
    assert schedule_iters(log, 10, 1.0, 0.1, 0.5) == 3
    assert schedule_iters(log, 10, 0.125, 0.1, 0.5) == 3 + 6 * 3
    assert schedule_iters(log, 10, 4.0, 0.1, 0.5) == 3  # guard above t_n = 1
    only_b = LogSchedule(a=0, b=2)
    assert schedule_iters(only_b, 10, 1.0, 0.1, 0.5) == 1  # clamped up to 1


def test_schedule_iters_theory_smallest_count():
    params = ContractionParams(c0=2.0, kappa=0.3)
    sched = TheoryNonsmoothData(delta=0.1, params=params)
    tau = 1.0 / 64.0
    for n in (3, 10, 64):
        t_n = n * tau
        m = schedule_iters(sched, n, t_n, tau, 0.5)
        target = 0.1 * min(t_n, 1.0) / math.log(1.0 + t_n / tau)
        assert params.c0 * params.kappa**m <= target
        if m > 1:
            assert params.c0 * params.kappa ** (m - 1) > target


def test_schedule_iters_theory_monotone_nonincreasing():
    params = ContractionParams(c0=1.5, kappa=0.4)
    sched = TheoryNonsmoothData(delta=0.2, params=params)
    tau = 1.0 / 128.0
    counts = [schedule_iters(sched, n, n * tau, tau, 0.5) for n in range(3, 129)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_schedule_iters_clamped_at_limit(caplog):
    params = ContractionParams(c0=1.0, kappa=0.95)
    sched = TheoryNonsmoothData(delta=0.01, params=params)
    tau = 1e-6
    with caplog.at_level("WARNING", logger="subdiff.stepping"):
        m = schedule_iters(sched, 3, 3 * tau, tau, 0.5)
    assert m == stepping.MAX_INNER_ITERATIONS
    assert any("clamped" in rec.message for rec in caplog.records)


def test_schedule_iters_rejects_exact():
    with pytest.raises(ConfigurationError):
        schedule_iters(ExactSchedule(), 5, 0.5, 0.1, 0.5)


def test_theory_smooth_uses_weaker_demand():
    params = ContractionParams(c0=2.0, kappa=0.3)
    tau = 1.0 / 64.0
    t_n = 3 * tau
    m_smooth = schedule_iters(TheorySmoothData(delta=0.1, params=params),
                              3, t_n, tau, 0.5)
    m_rough = schedule_iters(TheoryNonsmoothData(delta=0.1, params=params),
                             3, t_n, tau, 0.5)
    assert m_smooth <= m_rough  # t^(alpha/2) >= t for small t


# ------------------------------------------------------------- scalar runs


def test_scalar_fractional_integral_first_order():
    alpha, beta = 0.5, 1.0
    exact = rl_integral_oracle(alpha, beta, 1.0)
    errors = []
    for N in (40, 80, 160, 320):
        traj = run_exact(scalar_spec(alpha, N, beta=beta))
        errors.append(abs(traj.final[0] - exact))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(0.9 <= o <= 1.1 for o in orders)


def test_scalar_nonzero_start_shifts_limit():
    alpha, beta, u0 = 0.4, 0.0, 0.7
    exact = rl_integral_oracle(alpha, beta, 1.0) + u0
    errors = []
    for N in (80, 160, 320):
        traj = run_exact(scalar_spec(alpha, N, beta=beta, u0=u0))
        errors.append(abs(traj.final[0] - exact))
    assert errors[-1] < errors[0]
    assert errors[-1] < 5e-3


def test_scalar_relaxation_decays_like_mittag_leffler():
    traj = run_exact(scalar_spec(0.5, 64, lam=3.0, u0=1.0))
    vals = traj.U[:, 0]
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    # self-convergence at first order against quadruple resolution
    errs = []
    for N in (32, 64):
        coarse = run_exact(scalar_spec(0.5, N, lam=3.0, u0=1.0))
        fine = run_exact(scalar_spec(0.5, 4 * N, lam=3.0, u0=1.0))
        errs.append(abs(coarse.final[0] - fine.final[0]))
    order = math.log2(errs[0] / errs[1])
    assert 0.9 <= order <= 1.1


# ------------------------------------------------------------- trajectories


def test_zero_data_gives_zero_trajectory_for_every_schedule():
    sys = assemble(build_mesh(8), 5.0)
    spec = ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=8), sys=sys)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    params = ContractionParams(c0=1.2, kappa=0.3)
    schedules = [ExactSchedule(), FixedIterations(m=2), LogSchedule(a=1, b=1),
                 TheoryNonsmoothData(delta=0.1, params=params)]
    for schedule in schedules:
        traj = run_iis(spec, schedule, h)
        assert np.all(traj.U == 0.0)


def test_iis_with_exact_schedule_is_bitwise_run_exact():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 6)
    a = run_exact(spec)
    b = run_iis(spec, ExactSchedule(), None)
    assert np.array_equal(a.U, b.U)


def test_many_inner_iterations_match_direct_solves():
    sys = assemble(build_mesh(32), 5.0)
    spec = example_problem(1, sys, 0.5, 40)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    exact = run_exact(spec)
    iis = run_iis(spec, FixedIterations(m=30), h)
    rel = l2_norm(sys, iis.final - exact.final) / l2_norm(sys, exact.final)
    assert rel <= 1e-8


def test_startup_steps_marked_exact():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(2, sys, 0.5, 8)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    traj = run_iis(spec, FixedIterations(m=2, exact_startup_steps=3), h)
    labels = [rec.label for rec in traj.records]
    assert labels[:3] == ["exact", "exact", "exact"]
    assert labels[3:] == ["2"] * 5
    assert all(rec.wall_time >= 0.0 for rec in traj.records)


def test_inner_corrections_contract_at_measured_rate():
    sys = assemble(build_mesh(16), 5.0)
    spec = example_problem(2, sys, 0.5, 12)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    kappa_hat = estimate_contraction(h, seed=0).kappa
    traj = run_iis(spec, FixedIterations(m=5), h, record_corrections=True)
    for rec in traj.records:
        if rec.exact:
            continue
        cors = rec.corrections
        for prev, cur in zip(cors, cors[1:]):
            if prev > 1e-12 * cors[0]:
                assert cur <= (kappa_hat + 0.05) * prev


def test_run_iis_validates_hierarchy():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 8)
    with pytest.raises(ConfigurationError):
        run_iis(spec, FixedIterations(m=1), None)
    wrong_tau = build_hierarchy(sys, 0.5, 0.5, GaussSeidelForward())
    with pytest.raises(ConfigurationError):
        run_iis(spec, FixedIterations(m=1), wrong_tau)


def test_zero_iteration_schedule_rejected():
    class StarvedSchedule(FixedIterations):
        pass

    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 8)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    starved = StarvedSchedule(m=1)
    object.__setattr__(starved, "m", 0)  # bypass construction-time validation
    with pytest.raises(ConfigurationError):
        run_iis(spec, starved, h)


def test_divergent_inner_iteration_raises(monkeypatch):
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 8)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())

    def blowup(hierarchy, x, rhs):
        return 2.0 * x + 1.0

    monkeypatch.setattr(stepping, "vcycle", blowup)
    with pytest.raises(NumericsError):
        run_iis(spec, FixedIterations(m=6), h)


def _nan_after_half(t):
    return np.nan if t > 0.5 else 1.0


def _bump(x, y):
    return (1.0 - x**2) * (1.0 - y**2)


def _nan_source(kind, sys):
    if kind == "pointwise":
        return PointwiseSource(lambda x, y, t: _nan_after_half(t) * _bump(x, y))
    if kind == "separable":
        return SeparableSource(_nan_after_half, _bump)
    return LoadSource(lambda t: np.full(sys.dim, _nan_after_half(t)))


@pytest.mark.parametrize("runner", ["exact", "iis"])
@pytest.mark.parametrize("kind", ["pointwise", "separable", "load"])
def test_non_finite_source_fails_loudly(kind, runner):
    sys = assemble(build_mesh(8), 5.0)
    spec = ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=16), sys=sys,
                       source=_nan_source(kind, sys))
    # the mesh quadrature rejects a non-finite pointwise source before any solve
    error = ValueError if kind == "pointwise" else NumericsError
    with pytest.raises(error, match="non-finite"):
        if runner == "exact":
            run_exact(spec)
        else:
            h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
            run_iis(spec, FixedIterations(m=2), h)


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_self_convergence_first_order(example, alpha):
    """Errors against a 4x-finer run halve when N doubles."""
    sys = assemble(build_mesh(8), 5.0)
    errors = []
    for N in (20, 40):
        coarse = run_exact(example_problem(example, sys, alpha, N))
        fine = run_exact(example_problem(example, sys, alpha, 4 * N))
        errors.append(error_report(coarse, fine, sys).final)
    order = math.log2(errors[0] / errors[1])
    assert 0.85 <= order <= 1.15


# ------------------------------------------------------------- error report


def test_error_report_identical_and_scaled():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 6)
    traj = run_exact(spec)
    assert error_report(traj, traj, sys).final == 0.0
    doubled = 2.0 * traj.final
    assert error_report(traj, doubled, sys).final == pytest.approx(0.5, rel=1e-14)


def test_error_report_checkpoints_aligned():
    sys = assemble(build_mesh(8), 5.0)
    coarse = run_exact(example_problem(1, sys, 0.5, 5))
    fine = run_exact(example_problem(1, sys, 0.5, 20))
    report = error_report(coarse, fine, sys)
    assert len(report.checkpoints) == 5
    times = [t for t, _ in report.checkpoints]
    np.testing.assert_allclose(times, [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-12)
    assert report.checkpoints[-1][1] == report.final


def test_error_report_zero_reference_rejected():
    sys = assemble(build_mesh(8), 5.0)
    traj = run_exact(ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=4), sys=sys))
    with pytest.raises(ValueError):
        error_report(traj, np.zeros(sys.dim), sys)


def test_trajectory_csv_export(tmp_path):
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(2, sys, 0.5, 6)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    traj = run_iis(spec, FixedIterations(m=2), h)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, sys, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,t_n,M_n,l2_norm,weighted_correction"
    assert len(lines) == 7
    assert lines[1].split(",")[2] == "exact"
    assert lines[-1].split(",")[2] == "2"
