"""Time stepping: right-hand sides, schedules, trajectories, error reports."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import subdiff.stepping as stepping
from oracles import rl_integral_oracle
from subdiff.bench import example_problem
from subdiff.cq import HISTORY_BLOCK, TimeGrid, gen_weights, soe_fit
from subdiff.errors import ConfigurationError, NumericsError
from subdiff.fem import Factor, FemSystem, assemble, build_mesh, l2_norm
from subdiff.multigrid import (DampedJacobi, DirectSolver, GaussSeidelForward,
                               build_hierarchy, vcycle)
from subdiff.stepping import (ExactSchedule, LogSchedule, ProblemSpec,
                              SeparableSource, TheoryNonsmoothData,
                              TheorySmoothData, ZeroInit, error_report,
                              run_exact, run_iis, schedule_iters)


class NodalInit:
    """Test helper: start a trajectory from an explicit nodal vector."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def vector(self, sys):
        return self.vec.copy()


class LoadSource:
    """Test helper: a source given directly as a load vector t -> F(t), for
    surrogate systems where no mesh quadrature applies."""

    def __init__(self, fn):
        self.fn = fn

    def load_at(self, sys, t):
        return np.asarray(self.fn(t), dtype=float)


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


# ------------------------------------------------------------- history


def gemv_oracle_run(spec):
    """Oracle: U^0..U^N from a plain loop of per-step GEMV histories over the
    stored trajectory and direct solves, with run_iis's right-hand side."""
    sys, N, tau = spec.sys, spec.grid.N, spec.grid.tau
    table = gen_weights(spec.alpha, N)
    solver = DirectSolver(sys.system_matrix(tau, spec.alpha))
    L = len(table)
    U = np.zeros((N + 1, sys.dim))
    U[0] = spec.initial.vector(sys)
    for n in range(1, N + 1):
        hist = table.reversed_weights[L - 1 - n:L - 1] @ U[:n]
        r = sys.M @ (table.partial_sums[n] * U[0] - hist)
        if spec.source is not None:
            r = r + tau ** spec.alpha * spec.source.load_at(sys, n * tau)
        U[n] = solver.solve(r)
    return U


def test_run_exact_matches_step_rhs_loop_across_lag_blocks():
    """run_exact's streamed history against the GEMV oracle, at the ends of
    shorter runs with the same step that end around each block boundary of
    a run spanning three blocks."""
    sys = assemble(build_mesh(8), 5.0)
    N = 2 * HISTORY_BLOCK + 3
    U = gemv_oracle_run(example_problem(1, sys, 0.5, N))
    scale = np.abs(U).max()
    assert scale > 0.0
    for n in (1, HISTORY_BLOCK, HISTORY_BLOCK + 1, 2 * HISTORY_BLOCK,
              2 * HISTORY_BLOCK + 1, N):
        final = run_exact(example_problem(1, sys, 0.5, n, T=n / N)).final
        assert np.abs(final - U[n]).max() <= 1e-12 * scale


@pytest.mark.parametrize("N", [1, 7, HISTORY_BLOCK])
def test_runs_within_one_block_are_bitwise_the_gemv_oracle(N):
    """With N <= HISTORY_BLOCK no lag uses the sum-of-exponentials fit."""
    for example in (1, 2):
        spec = example_problem(example, assemble(build_mesh(8), 5.0), 0.3, N)
        assert np.array_equal(run_exact(spec).final, gemv_oracle_run(spec)[N])


def test_run_keeps_no_trajectory():
    """At K=16, going from N=1280 to N=5120 adds less working memory than
    what legitimately grows with N plus one block buffer, and less retained
    memory (the step records) than one vector per step: nothing of size
    N x dim is kept."""
    sys = assemble(build_mesh(16), 5.0)

    def traced(N):
        spec = example_problem(1, sys, 0.5, N)
        tracemalloc.start()
        try:
            traj = run_exact(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.records) == N
        return peak - held, held

    work_a, held_a = traced(1280)
    work_b, held_b = traced(5120)
    vector = 8 * sys.dim
    # the three weight tables of N+1 floats, and the fit's extra modes, each
    # a mode vector plus its two rows of block weights
    modes = [len(soe_fit(0.5, N)[0]) for N in (1280, 5120)]
    grows = 8 * (3 * (5120 - 1280) + (modes[1] - modes[0]) * (sys.dim + 2 * HISTORY_BLOCK))
    assert work_b - work_a < grows + (HISTORY_BLOCK + 1) * vector
    assert held_b - held_a < (5120 - 1280) * vector


def test_run_iis_holds_one_band_factor_at_a_time():
    """The L2 projection of U^0 is done before the step operator is factored,
    and the far-lag modes are made after the startup factor is freed.  So at
    K=64 (example 2, log:3,6, N=64) the run's peak live bytes above its start
    stay within the larger of one band factor and the fit's modes, plus one
    block buffer, plus 1.5 MB; holding two factors, or a factor beside the
    modes, adds 2 MB."""
    N = 64
    sys = assemble(build_mesh(64), 5.0)
    spec = example_problem(2, sys, 0.5, N)
    h = build_hierarchy(sys, spec.grid.tau, 0.5)
    factor = Factor(sys.system_matrix(spec.grid.tau, 0.5)).lu.cb.nbytes
    modes = 8 * len(soe_fit(0.5, N)[0]) * sys.dim
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = run_iis(spec, LogSchedule(a=3, b=6), h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(r.exact for r in traj.records) == 2
    assert peak - start <= max(factor, modes) + 8 * (HISTORY_BLOCK + 1) * sys.dim + 1.5e6


# ------------------------------------------------------------- schedules


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        LogSchedule(a=0)
    with pytest.raises(ConfigurationError):
        LogSchedule(a=2, exact_startup_steps=0)
    with pytest.raises(ConfigurationError):
        LogSchedule(a=0, b=0)
    with pytest.raises(ConfigurationError):
        LogSchedule(a=-1, b=2)
    for bad in (dict(a=True), dict(a=2, b=True), dict(a=2, exact_startup_steps=True)):
        with pytest.raises(ConfigurationError):  # a bool is not an integer
            LogSchedule(**bad)
    with pytest.raises(ConfigurationError):
        TheorySmoothData(delta=0.0)
    with pytest.raises(ConfigurationError):
        TheoryNonsmoothData(delta=1.0)


def with_kappa(kappa):
    """A stand-in hierarchy for the schedule rules, which read only its kappa."""
    return SimpleNamespace(kappa=kappa)


def test_schedule_iters_fixed_and_log():
    fixed = LogSchedule(a=3)
    assert schedule_iters(fixed, 5, 0.5, 0.1, 0.5, None) == 3
    log = LogSchedule(a=3, b=6)
    assert schedule_iters(log, 10, 1.0, 0.1, 0.5, None) == 3
    assert schedule_iters(log, 10, 0.125, 0.1, 0.5, None) == 3 + 6 * 3
    assert schedule_iters(log, 10, 4.0, 0.1, 0.5, None) == 3  # guard above t_n = 1
    only_b = LogSchedule(a=0, b=2)
    assert schedule_iters(only_b, 10, 1.0, 0.1, 0.5, None) == 1  # clamped up to 1


def test_schedule_iters_theory_smallest_count():
    kappa = 0.3
    sched = TheoryNonsmoothData(delta=0.1)
    tau = 1.0 / 64.0
    for n in (3, 10, 64):
        t_n = n * tau
        m = schedule_iters(sched, n, t_n, tau, 0.5, with_kappa(kappa))
        target = 0.1 * min(t_n, 1.0) / math.log(1.0 + t_n / tau)
        assert kappa**m <= target
        if m > 1:
            assert kappa ** (m - 1) > target


def test_schedule_iters_theory_monotone_nonincreasing():
    sched, h = TheoryNonsmoothData(delta=0.2), with_kappa(0.4)
    tau = 1.0 / 128.0
    counts = [schedule_iters(sched, n, n * tau, tau, 0.5, h) for n in range(3, 129)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_schedule_iters_clamped_at_limit(caplog):
    tau = 1e-6
    for sched in (LogSchedule(a=1, b=1000), TheoryNonsmoothData(delta=0.01)):
        caplog.clear()
        with caplog.at_level("WARNING", logger="subdiff.stepping"):
            m = schedule_iters(sched, 3, 3 * tau, tau, 0.5, with_kappa(0.95))
        assert m == stepping.MAX_INNER_ITERATIONS == 200
        assert any("clamped" in rec.message for rec in caplog.records)


_schedules = st.one_of(
    st.builds(LogSchedule, a=st.integers(1, 400)),
    st.builds(LogSchedule, a=st.integers(1, 50), b=st.integers(0, 400)),
    st.builds(TheorySmoothData, delta=st.floats(0.01, 0.99)),
    st.builds(TheoryNonsmoothData, delta=st.floats(0.01, 0.99)),
)


@settings(max_examples=200, deadline=None)
@given(sched=_schedules, kappa=st.floats(0.01, 0.99), N=st.integers(3, 2000),
       alpha=st.floats(0.05, 0.95), T=st.floats(0.01, 100.0))
def test_schedule_iters_bounded_and_nonincreasing_in_time(sched, kappa, N, alpha, T):
    tau = T / N
    h = with_kappa(kappa)
    counts = [schedule_iters(sched, n, n * tau, tau, alpha, h)
              for n in range(3, N + 1, max(1, N // 64))]
    assert all(1 <= m <= stepping.MAX_INNER_ITERATIONS for m in counts)
    # a theory target falls, and its count rises, wherever ln(1 + t_n/tau)
    # grows faster than its numerator: past t_n = 1 for both, and for the
    # smooth one's t_n^(alpha/2) at any t_n when alpha is small
    if isinstance(sched, TheorySmoothData) or (
            isinstance(sched, TheoryNonsmoothData) and T > 1.0):
        return
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_theory_smooth_uses_weaker_demand():
    tau = 1.0 / 64.0
    t_n = 3 * tau
    h = with_kappa(0.3)
    m_smooth = schedule_iters(TheorySmoothData(delta=0.1), 3, t_n, tau, 0.5, h)
    m_rough = schedule_iters(TheoryNonsmoothData(delta=0.1), 3, t_n, tau, 0.5, h)
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
    # U^n of the N=64 run is the final value of the n-step run on [0, n/64]
    finals = [run_exact(scalar_spec(0.5, n, lam=3.0, u0=1.0, T=n / 64)).final[0]
              for n in range(1, 65)]
    vals = np.array([1.0] + finals)
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
    schedules = [ExactSchedule(), LogSchedule(a=2), LogSchedule(a=1, b=1),
                 TheoryNonsmoothData(delta=0.1)]
    for schedule in schedules:
        traj = run_iis(spec, schedule, h)
        assert np.all(traj.final == 0.0)
        assert all(c == 0.0 for rec in traj.records for c in rec.corrections)


def test_iis_with_exact_schedule_is_bitwise_run_exact():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 6)
    a = run_exact(spec)
    b = run_iis(spec, ExactSchedule(), None)
    assert np.array_equal(a.final, b.final)
    steps = [[(r.n, r.t, r.exact) for r in t.records] for t in (a, b)]
    assert steps[0] == steps[1]


@pytest.fixture(scope="module")
def sys16():
    return assemble(build_mesh(16), 5.0)


@settings(max_examples=12, deadline=None)
@given(N=st.integers(3, 24), alpha=st.floats(0.05, 0.95))
def test_many_inner_iterations_match_direct_solves(sys16, N, alpha):
    """IIS with many V-cycles per step reproduces run_exact at any (tau, alpha)."""
    sys = sys16
    spec = example_problem(1, sys, alpha, N)
    h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
    exact = run_exact(spec)
    iis = run_iis(spec, LogSchedule(a=30), h)
    rel = l2_norm(sys, iis.final - exact.final) / l2_norm(sys, exact.final)
    assert rel <= 1e-8


def test_startup_steps_marked_exact():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(2, sys, 0.5, 8)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    traj = run_iis(spec, LogSchedule(a=2, exact_startup_steps=3), h)
    assert [(rec.exact, rec.iterations) for rec in traj.records] == (
        [(True, None)] * 3 + [(False, 2)] * 5)
    assert all(rec.wall_time >= 0.0 for rec in traj.records)


def test_inner_corrections_contract_at_measured_rate():
    sys = assemble(build_mesh(16), 5.0)
    spec = example_problem(2, sys, 0.5, 12)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
    # each correction is E applied to the one before, so |E|_B bounds the ratio
    kappa = h.kappa
    traj = run_iis(spec, LogSchedule(a=5), h)
    for rec in traj.records:
        if rec.exact:
            continue
        cors = rec.corrections
        for prev, cur in zip(cors, cors[1:]):
            if prev > 1e-12 * cors[0]:
                assert cur <= kappa * (1.0 + 1e-8) * prev


@pytest.mark.parametrize("kind, floor", [(GaussSeidelForward(), True),
                                         (DampedJacobi(), False)], ids=["gs", "jacobi"])
def test_carried_residuals_and_product_free_correction_norms(monkeypatch, kind, floor):
    """Over every cycle of a K=32 example-2 log:3,6 run (N=40), the residual a
    cycle returns is rhs - B x to 1e-12 of |rhs|, and the correction norm
    taken from the carried residuals, sqrt(d'(r - r_next)), is sqrt(d' B d)
    to 1e-8 plus 1e-12 of the step's first correction: the carried
    residuals round at about 1e-13 |rhs|, which dominates once a correction
    is far below the first.  Every norm is finite and >= 0, also below the
    rounding floor, which the GS run reaches."""
    sys = assemble(build_mesh(32), 5.0)
    spec = example_problem(2, sys, 0.5, 40)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, kind)
    B = h.fine.B
    cycles = []

    def recorded(hierarchy, x, rhs, r):
        out = vcycle(hierarchy, x, rhs, r)
        cycles.append((x, rhs) + out)
        return out

    monkeypatch.setattr(stepping, "vcycle", recorded)
    traj = run_iis(spec, LogSchedule(a=3, b=6), h)
    norms = [(c, rec.corrections[0]) for rec in traj.records for c in rec.corrections]
    assert len(cycles) == len(norms) == sum(rec.iterations or 0 for rec in traj.records)
    for (x, rhs, x_next, r_next), (c, first) in zip(cycles, norms):
        assert np.max(np.abs(r_next - (rhs - B @ x_next))) <= 1e-12 * np.max(np.abs(rhs))
        d = x_next - x
        ref = np.sqrt(d @ (B @ d))
        assert 0.0 <= c < np.inf
        assert abs(c - ref) <= 1e-8 * ref + 1e-12 * first
    assert (min(c / first for c, first in norms) < 1e-10) == floor


def test_run_iis_validates_hierarchy():
    """A hierarchy is accepted when its fine operator is the step operator
    M + tau^alpha S, whatever system object or alpha it was built from."""
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 8)
    tau = spec.grid.tau
    with pytest.raises(ConfigurationError):
        run_iis(spec, LogSchedule(a=1), None)
    for wrong in (build_hierarchy(sys, 0.5, 0.5, GaussSeidelForward()),  # tau
                  build_hierarchy(assemble(build_mesh(8), 4.0), tau, 0.5),  # c_A
                  build_hierarchy(assemble(build_mesh(16), 5.0), tau, 0.5),  # K
                  build_hierarchy(sys, tau, 0.6)):  # alpha at tau < 1
        with pytest.raises(ConfigurationError, match="step operator"):
            run_iis(spec, LogSchedule(a=1), wrong)
    want = run_iis(spec, LogSchedule(a=1), build_hierarchy(sys, tau, 0.5)).final
    twin = build_hierarchy(assemble(build_mesh(8), 5.0), tau, 0.5)
    np.testing.assert_array_equal(run_iis(spec, LogSchedule(a=1), twin).final, want)
    # at tau = 1, tau^alpha S = S for every alpha: the operator is the same
    unit_steps = example_problem(1, sys, 0.5, 2, T=2.0)
    other_alpha = build_hierarchy(sys, 1.0, 0.3)
    schedule = LogSchedule(a=1, exact_startup_steps=1)
    assert not run_iis(unit_steps, schedule, other_alpha).records[-1].exact


def test_run_iis_makes_one_dia_copy_of_b(monkeypatch):
    """run_iis checks the hierarchy against its one DIA copy of B, diagonal
    by diagonal, before it factors anything; the direct solver then shares
    that copy.  No sparse difference with the hierarchy's operator is formed."""
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(2, sys, 0.5, 8)
    tau = spec.grid.tau
    h, wrong = build_hierarchy(sys, tau, 0.5), build_hierarchy(sys, 2.0 * tau, 0.5)
    factored, init = [], Factor.__init__

    def counted(self, A):
        factored.append(A)
        init(self, A)

    def no_difference(self, other):
        raise AssertionError("formed a sparse difference")

    monkeypatch.setattr(Factor, "__init__", counted)
    monkeypatch.setattr(DirectSolver, "__init__", counted)
    monkeypatch.setattr(sp.dia_matrix, "__sub__", no_difference)
    monkeypatch.setattr(sp.dia_matrix, "__rsub__", no_difference)
    with pytest.raises(ConfigurationError, match="step operator"):
        run_iis(spec, LogSchedule(a=1), wrong)
    assert factored == []
    traj = run_iis(spec, LogSchedule(a=1), h)
    B = factored[-1]  # the projection factors nothing, the solver B
    assert len(factored) == 1 and isinstance(B, sp.dia_matrix)
    assert B is not h.fine.B
    assert np.array_equal(B.offsets, h.fine.B.offsets)
    assert B.data.tobytes() == h.fine.B.data.tobytes()
    assert traj.records[2].iterations == 1


def test_divergent_inner_iteration_raises(monkeypatch):
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 8)
    h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())

    def blowup(hierarchy, x, rhs, r):
        x = 2.0 * x + 1.0
        return x, rhs - hierarchy.fine.B @ x

    monkeypatch.setattr(stepping, "vcycle", blowup)
    with pytest.raises(NumericsError):
        run_iis(spec, LogSchedule(a=6), h)


def _nan_after_half(t):
    return np.nan if t > 0.5 else 1.0


def _bump(x, y):
    return (1.0 - x**2) * (1.0 - y**2)


def _nan_source(kind, sys):
    if kind == "separable":
        return SeparableSource(_nan_after_half, _bump)
    return LoadSource(lambda t: np.full(sys.dim, _nan_after_half(t)))


@pytest.mark.parametrize("runner", ["exact", "iis"])
@pytest.mark.parametrize("kind", ["separable", "load"])
def test_non_finite_source_fails_loudly(kind, runner):
    sys = assemble(build_mesh(8), 5.0)
    spec = ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=16), sys=sys,
                       source=_nan_source(kind, sys))
    with pytest.raises(NumericsError, match="non-finite"):
        if runner == "exact":
            run_exact(spec)
        else:
            h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
            run_iis(spec, LogSchedule(a=2), h)


def test_separable_source_reused_on_another_mesh():
    source = SeparableSource(lambda t: t * t, _bump)
    for K in (8, 16):
        sys = assemble(build_mesh(K), 5.0)
        grid = TimeGrid(T=1.0, N=6)
        reused = run_exact(ProblemSpec(alpha=0.5, grid=grid, sys=sys, source=source))
        fresh = run_exact(ProblemSpec(alpha=0.5, grid=grid, sys=sys,
                                      source=SeparableSource(lambda t: t * t, _bump)))
        assert np.array_equal(reused.final, fresh.final)


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_self_convergence_first_order(example, alpha):
    """Errors against a 4x-finer run halve when N doubles."""
    sys = assemble(build_mesh(8), 5.0)
    errors = []
    for N in (20, 40):
        coarse = run_exact(example_problem(example, sys, alpha, N))
        fine = run_exact(example_problem(example, sys, alpha, 4 * N))
        errors.append(error_report(coarse, fine.final, sys))
    order = math.log2(errors[0] / errors[1])
    assert 0.85 <= order <= 1.15


# ------------------------------------------------------------- error report


def test_error_report_identical_and_scaled():
    sys = assemble(build_mesh(8), 5.0)
    spec = example_problem(1, sys, 0.5, 6)
    traj = run_exact(spec)
    assert error_report(traj, traj.final, sys) == 0.0
    doubled = 2.0 * traj.final
    assert error_report(traj, doubled, sys) == pytest.approx(0.5, rel=1e-14)


def test_error_report_zero_reference_rejected():
    sys = assemble(build_mesh(8), 5.0)
    traj = run_exact(ProblemSpec(alpha=0.5, grid=TimeGrid(T=1.0, N=4), sys=sys))
    with pytest.raises(ValueError):
        error_report(traj, np.zeros(sys.dim), sys)
    for bad in (np.nan, np.inf):
        ref = np.ones(sys.dim)
        ref[sys.dim // 2] = bad
        for reference in (ref, np.full(sys.dim, bad)):
            with pytest.raises(ValueError, match="finite"):
                error_report(traj, reference, sys)
