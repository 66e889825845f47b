"""Convolution quadrature weights and discrete fractional operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom

from subdiff.cq import (HISTORY_BLOCK, History, TimeGrid, WeightTable,
                        frac_apply, gen_weights, rl_integral_oracle, soe_fit)
from subdiff.errors import ConfigurationError


def series_coefficients(gamma, n_max):
    """Independent oracle: coefficients of (1-xi)^gamma via scipy binomials."""
    j = np.arange(n_max + 1)
    return (-1.0) ** j * binom(gamma, j)


def test_b0_is_one():
    for gamma in (0.1, 0.5, 0.9, 1.5):
        assert gen_weights(gamma, 0).weights[0] == 1.0


def test_first_weights_gamma_half():
    w = gen_weights(0.5, 2).weights
    assert w[1] == pytest.approx(-0.5, abs=1e-15)
    assert w[2] == pytest.approx(-0.125, abs=1e-15)


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8, 1.3])
def test_weights_match_binomial_formula(gamma):
    table = gen_weights(gamma, 60)
    expected = series_coefficients(gamma, 60)
    np.testing.assert_allclose(table.weights, expected, rtol=1e-12, atol=1e-300)


def test_signs_and_partial_sums_gamma_in_unit_interval():
    table = gen_weights(0.5, 10_000)
    w = table.weights
    assert w[0] == 1.0
    assert np.all(w[1:] < 0.0)
    s = table.partial_sums
    assert np.all(s > 0.0)
    assert np.all(np.diff(s) < 0.0)
    # partial sums are the series of (1-xi)^(gamma-1); expand independently
    c = np.empty(10_001)
    c[0] = 1.0
    for j in range(1, 10_001):
        c[j] = c[j - 1] * (j - 0.5) / j
    np.testing.assert_allclose(s, c, rtol=1e-11)
    assert s[10_000] < s[10] < s[0] == 1.0
    assert s[10_000] < 0.05


def test_weight_bound_gamma_half_long_horizon():
    table = gen_weights(0.5, 10_000)
    assert np.all(np.abs(table.weights) <= table.bound())


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(min_value=0.02, max_value=0.98))
def test_weight_bound_property(gamma):
    table = gen_weights(gamma, 500)
    j = np.arange(501)
    bound = math.exp(2.0 * gamma) * (j + 1.0) ** (-gamma - 1.0)
    assert np.all(np.abs(table.weights) <= bound)
    assert np.all(table.weights[1:] < 0.0)
    assert np.all(table.partial_sums > 0.0)


@settings(max_examples=25, deadline=None)
@given(g1=st.floats(min_value=0.05, max_value=0.95),
       g2=st.floats(min_value=0.05, max_value=0.95))
def test_composition_of_tables(g1, g2):
    n = 200
    w1 = gen_weights(g1, n).weights
    w2 = gen_weights(g2, n).weights
    w12 = gen_weights(g1 + g2, n).weights
    conv = np.convolve(w1, w2)[:n + 1]
    assert np.max(np.abs(conv - w12)) <= 100 * np.finfo(float).eps * np.max(np.abs(w12[0:1]))


def test_composition_is_backward_difference():
    rng = np.random.default_rng(42)
    alpha, tau, n = 0.3, 0.02, 50
    seq = rng.standard_normal((n + 1, 4))
    ta = gen_weights(alpha, n)
    tb = gen_weights(1.0 - alpha, n)
    composed = frac_apply(tb, tau, frac_apply(ta, tau, seq))
    bdiff = np.empty_like(seq)
    bdiff[0] = seq[0] / tau
    bdiff[1:] = (seq[1:] - seq[:-1]) / tau
    scale = np.max(np.abs(bdiff))
    assert np.max(np.abs(composed - bdiff)) <= 100 * np.finfo(float).eps * scale


def test_frac_apply_zero_sequence():
    table = gen_weights(0.5, 20)
    out = frac_apply(table, 0.1, np.zeros((21, 3)))
    assert np.all(out == 0.0)
    for empty in (np.zeros(0), np.zeros((0, 3))):
        assert frac_apply(table, 0.1, empty).shape == empty.shape


def test_frac_apply_constant_sequence():
    alpha, tau, n = 0.4, 0.05, 30
    table = gen_weights(alpha, n)
    c = 2.5
    out = frac_apply(table, tau, np.full(n + 1, c))
    expected = tau ** (-alpha) * c * table.partial_sums[:n + 1]
    np.testing.assert_allclose(out, expected, rtol=1e-13)
    assert np.all(np.diff(table.partial_sums[:n + 1]) < 0.0)


def test_frac_apply_linearity():
    rng = np.random.default_rng(7)
    table = gen_weights(0.6, 12)
    a = rng.standard_normal((13, 2))
    b = rng.standard_normal((13, 2))
    lhs = frac_apply(table, 0.1, 2.0 * a - 3.0 * b)
    rhs = 2.0 * frac_apply(table, 0.1, a) - 3.0 * frac_apply(table, 0.1, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def plain_history(table, U, n):
    """Oracle: sum_{j=1..n} b_j U^{n-j} as one GEMV over U^0..U^{n-1}."""
    return table.weights[n:0:-1] @ U[:n]


def streamed_sums(table, U, N):
    """History sums of steps 1..N, U^{n-1} handed over just before step n."""
    history = History(table, N, U.shape[1])
    return [history.next(U[n - 1]) for n in range(1, N + 1)]


B = HISTORY_BLOCK
# Far lags (beyond the current block) come from the sum-of-exponentials fit,
# whose relative weight error is at most 3.25e-12 for 49 <= N <= 20480 and
# gamma in [0.05, 0.95]; a far-lag sum is off by at most that much of
# sum_j |b_j| |U^{n-j}|.  Near lags keep the exact weights and 1e-13.
SOE_REL = 1e-11
NEAR_REL = 1e-13


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(min_value=0.05, max_value=0.95),
       N=st.sampled_from([B + 1, 320, 1280, 5120]))
def test_soe_fit_matches_weights(gamma, N):
    """b_j = sum_k w_k s_k^(j-1) to SOE_REL relative for every 1 <= j <= N."""
    s, w = soe_fit(gamma, N)
    assert np.all((s > 0.0) & (s < 1.0)) and np.all(w < 0.0)
    b = gen_weights(gamma, N).weights[1:]
    fit = np.array([w @ s ** (j - 1) for j in range(1, N + 1)])
    assert np.max(np.abs(fit - b) / np.abs(b)) <= SOE_REL


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=0.99),
       N=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]),
       seed=st.integers(0, 2**32 - 1))
def test_lag_blocked_history_matches_plain_gemv(alpha, N, seed):
    """Streamed history sums and frac_apply against the per-step GEMV, at
    every n, relative to sum_j |b_j| |U^{n-j}|: NEAR_REL while every lag is
    in the first block, SOE_REL after."""
    U = np.random.default_rng(seed).standard_normal((N + 1, 3))
    table = gen_weights(alpha, N)
    absw = np.abs(table.weights)
    norms = np.linalg.norm(U, axis=1)
    sums = streamed_sums(table, U, N)
    assert len(sums) == N
    frac = frac_apply(table, 1.0, U)
    for n in range(1, N + 1):
        rel = NEAR_REL if n <= B else SOE_REL
        hist = plain_history(table, U, n)
        scale = absw[n:0:-1] @ norms[:n]
        assert np.linalg.norm(sums[n - 1] - hist) <= rel * scale
        full = scale + absw[0] * norms[n]
        assert np.linalg.norm(frac[n] - (U[n] + hist)) <= rel * full
    assert np.array_equal(frac[0], U[0])


@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(min_value=0.05, max_value=0.95))
def test_streamed_history_matches_gemv_oracle_long_run(alpha):
    """At every n <= 5120 the streamed sum is within SOE_REL of the
    exact-weight GEMV, relative to sum_j |b_j| |U^{n-j}|."""
    N = 5120
    U = np.random.default_rng(11).standard_normal((N + 1, 2))
    table = gen_weights(alpha, N)
    absw = np.abs(table.weights)
    norms = np.linalg.norm(U, axis=1)
    history = History(table, N, 2)
    worst = 0.0
    for n in range(1, N + 1):
        err = np.linalg.norm(history.next(U[n - 1]) - plain_history(table, U, n))
        worst = max(worst, err / (absw[n:0:-1] @ norms[:n]))
    assert worst <= SOE_REL


def test_history_within_one_block_is_bitwise_the_gemv():
    """With N <= HISTORY_BLOCK every lag uses the exact weights, and each sum
    is the plain GEMV over the contiguous reversed weights, bit for bit."""
    for N in (1, 2, B - 1, B):
        U = np.random.default_rng(N).standard_normal((N + 1, 4))
        table = gen_weights(0.37, N)
        L = len(table)
        for n, hist in enumerate(streamed_sums(table, U, N), start=1):
            assert np.array_equal(hist, table.reversed_weights[L - 1 - n:L - 1] @ U[:n])


def test_history_allocates_its_modes_at_the_first_far_lag_block():
    """No far-lag modes exist through step HISTORY_BLOCK, and none at all
    when N <= HISTORY_BLOCK; a longer run makes them for step B + 1."""
    for N in (B - 1, B, B + 1, 2 * B + 3):
        table = gen_weights(0.5, N)
        U = np.random.default_rng(N).standard_normal((N + 1, 3))
        history = History(table, N, 3)
        for n in range(1, N + 1):
            history.next(U[n - 1])
            if n <= B:
                assert history.modes is None
            else:
                assert history.modes.shape == (len(soe_fit(0.5, N)[0]), 3)


def test_history_sums_read_only_the_past():
    """The n-th sum is drawn while U^n.. are still unwritten."""
    N = 2 * B + 3
    table = gen_weights(0.5, N)
    rng = np.random.default_rng(3)
    U = np.full((N + 1, 2), np.nan)
    U[0] = rng.standard_normal(2)
    history = History(table, N, 2)
    for n in range(1, N + 1):
        hist, oracle = history.next(U[n - 1]), plain_history(table, U, n)
        if n <= B:
            np.testing.assert_allclose(hist, oracle, rtol=1e-13, atol=1e-15)
        else:
            scale = np.abs(table.weights[n:0:-1]) @ np.abs(U[:n]).max(axis=1)
            assert np.abs(hist - oracle).max() <= SOE_REL * scale
        U[n] = rng.standard_normal(2)


def test_history_sums_steady_history_collapses_to_initial_value():
    """U^j = U^0 for all j: s_n U^0 - sum_{j=1..n} b_j U^{n-j} = b_0 U^0 = U^0,
    the right-hand side of a steady step before the mass product."""
    N = B + 5
    table = gen_weights(0.3, N)
    u0 = np.random.default_rng(0).standard_normal(9)
    U = np.tile(u0, (N + 1, 1))
    for n, hist in enumerate(streamed_sums(table, U, N), start=1):
        steady = table.partial_sums[n] * u0 - hist
        rel = NEAR_REL if n <= B else SOE_REL
        assert np.abs(steady - u0).max() <= rel * np.abs(u0).max()


def test_streamed_history_refuses_orders_outside_the_fit():
    """Order 1.5 fails with a named error once far lags need the fit, and up
    to HISTORY_BLOCK + 1 entries it still matches the GEMV oracle."""
    table = gen_weights(1.5, 300)
    with pytest.raises(ValueError, match="order in \\(0, 1\\), got 1.5"):
        frac_apply(table, 0.1, np.ones(301))
    U = np.random.default_rng(5).standard_normal((B + 1, 2))
    frac = frac_apply(table, 1.0, U)
    for n in range(1, B + 1):
        scale = np.abs(table.weights[:n + 1]) @ np.abs(U[n::-1]).max(axis=1)
        assert np.abs(frac[n] - U[n] - plain_history(table, U, n)).max() <= NEAR_REL * scale


def test_frac_apply_validation():
    table = gen_weights(0.5, 3)
    with pytest.raises(ValueError):
        frac_apply(table, 0.1, np.zeros((10, 2)))  # table too short
    with pytest.raises(ValueError):
        frac_apply(table, -0.1, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        frac_apply(table, 0.1, np.zeros((2, 2, 2)))


def test_weight_table_derives_its_sums():
    w = gen_weights(0.5, 6).weights
    table = WeightTable(0.5, w)
    np.testing.assert_array_equal(table.partial_sums, np.cumsum(w))
    np.testing.assert_array_equal(table.reversed_weights, w[::-1])
    for arr in (table.weights, table.partial_sums, table.reversed_weights):
        assert not arr.flags.writeable
    with pytest.raises(TypeError):
        WeightTable(0.5, w, partial_sums=np.zeros(7))


def test_gen_weights_validation():
    for gamma in (-0.1, 0.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            gen_weights(gamma, 10)
    for n_max in (-1, True):
        with pytest.raises(ValueError):
            gen_weights(0.5, n_max)
    with pytest.raises(ConfigurationError):
        gen_weights(0.5, 2**28)


def test_rl_integral_oracle_values():
    assert rl_integral_oracle(0.5, 0.0, 0.0) == 0.0
    assert rl_integral_oracle(0.5, 0.0, 1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
    assert rl_integral_oracle(1.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        rl_integral_oracle(0.5, 0.0, -1.0)
    with pytest.raises(ValueError):
        rl_integral_oracle(0.5, -0.5, 1.0)


def test_scalar_cq_consistency_first_order():
    """Scalar relaxation-free equation: D^alpha (U - U0) = t^beta.

    The solution at t = 1 converges to the fractional integral of t^beta at
    first order; checked here directly from the weights (the stepper-level
    twin lives in test_stepping).
    """
    alpha, beta = 0.5, 1.0
    exact = rl_integral_oracle(alpha, beta, 1.0)
    errors = []
    for N in (40, 80, 160, 320):
        tau = 1.0 / N
        table = gen_weights(alpha, N)
        wrev = table.reversed_weights
        L = len(table)
        U = np.zeros(N + 1)
        for n in range(1, N + 1):
            hist = wrev[L - 1 - n:L - 1] @ U[:n]
            U[n] = tau ** alpha * (n * tau) ** beta - hist
        errors.append(abs(U[N] - exact))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    for order in orders:
        assert 0.9 <= order <= 1.1


def test_time_grid():
    g = TimeGrid(T=2.0, N=8)
    assert g.tau == 0.25
    with pytest.raises(ConfigurationError):
        TimeGrid(T=0.0, N=4)
    for N in (0, True):  # a bool is not a step count
        with pytest.raises(ConfigurationError):
            TimeGrid(T=1.0, N=N)
    for T in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            TimeGrid(T=T, N=3)


def test_weight_table_immutable():
    table = gen_weights(0.5, 5)
    with pytest.raises(ValueError):
        table.weights[0] = 2.0
