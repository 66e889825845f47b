"""Acceptance suite: one test per criterion, at pinned tolerances.

Each test records a [PASS]/[FAIL] line (printed in the terminal summary) and
then asserts.  Heavy fine-step references are shared through the session-wide
stores in conftest.  Criterion 10 includes a fixed-budget degradation
signature asserted at K=64; measurements show the signature only materializes
at K=128 with undamped point Jacobi, so that sub-assertion is expected to
fail, and the paper-scale supplement (the resolution selected by the CLI's
--paper-scale flag) demonstrates the phenomenon.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from subdiff.bench import example_problem
from subdiff.cq import gen_weights, rl_integral_oracle
from subdiff.fem import assemble, build_mesh, load_vector, ritz_project
from subdiff.multigrid import DampedJacobi, GaussSeidelForward, build_hierarchy
from subdiff.stepping import (LogSchedule, ProblemSpec, TheoryNonsmoothData,
                              error_report, run_exact, run_iis)
from test_stepping import scalar_spec

FULL_NS = (10, 20, 40, 80, 160, 320)


class _Criterion:
    """Collects sub-results so every facet is reported before asserting."""

    def __init__(self, cid, title):
        self.cid = cid
        self.title = title
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)
        return ok

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        extra = "" if not self.failures else f" ({'; '.join(self.failures[:4])})"
        record_acceptance(
            f"[{status}] {self.cid} {self.title} [{elapsed:.1f}s]{extra}")
        assert not self.failures, f"{self.cid}: {self.failures}"


def rates_from(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def test_c01_weight_decay_bound():
    crit = _Criterion("C1", "weight decay bound, gamma in {0.1..0.9}, j <= 1e4")
    j = np.arange(10_001)
    for tenth in range(1, 10):
        gamma = tenth / 10.0
        table = gen_weights(gamma, 10_000)
        bound = math.exp(2.0 * gamma) * (j + 1.0) ** (-gamma - 1.0)
        worst = np.max(np.abs(table.weights) - bound)
        crit.check(worst <= 0.0, f"gamma={gamma}: bound violated by {worst:.2e}")
    crit.finish()


def test_c02_weight_composition():
    crit = _Criterion("C2", "weights(1-a) * weights(a) = backward difference")
    target = np.zeros(501)
    target[0], target[1] = 1.0, -1.0
    for alpha in (0.2, 0.5, 0.8):
        wa = gen_weights(alpha, 500).weights
        wb = gen_weights(1.0 - alpha, 500).weights
        conv = np.convolve(wa, wb)[:501]
        dev = np.max(np.abs(conv - target))
        crit.check(dev <= 1e-13, f"alpha={alpha}: deviation {dev:.2e}")
    crit.finish()


def test_c03_scalar_fractional_integral_order():
    crit = _Criterion("C3", "scalar CQ converges to Gamma-ratio limit at order 1")
    Ns = (40, 80, 160, 320)
    logN = np.log2(Ns)
    for alpha in (0.2, 0.5, 0.8):
        for beta in (0.0, 1.0, 2.0):
            exact = rl_integral_oracle(alpha, beta, 1.0)
            errs = [abs(run_exact(scalar_spec(alpha, N, beta=beta)).final[0] - exact)
                    for N in Ns]
            slope = -np.polyfit(logN, np.log2(errs), 1)[0]
            crit.check(0.9 <= slope <= 1.1,
                       f"alpha={alpha} beta={beta}: order {slope:.3f}")
    crit.finish()


def test_c04_energy_projection_identity():
    crit = _Criterion("C4", "S R_h v = F(c Av) to 1e-10, K in {8,16,32}, c in {1,5}")
    grad = lambda x, y: (-2.0 * x * (1.0 - y * y), -2.0 * y * (1.0 - x * x))
    for K in (8, 16, 32):
        mesh = build_mesh(K)
        for c_A in (1.0, 5.0):
            sys = assemble(mesh, c_A)
            av = lambda x, y: c_A * (2.0 * (1.0 - y * y) + 2.0 * (1.0 - x * x))
            R = ritz_project(sys, grad=grad)
            rhs = load_vector(mesh, av)
            dev = np.max(np.abs(sys.S @ R - rhs)) / np.max(np.abs(rhs))
            crit.check(dev <= 1e-10, f"K={K} c={c_A}: deviation {dev:.2e}")
    crit.finish()


def test_c05_galerkin_coarsening(system_store):
    crit = _Criterion("C5", "P'BP = B_coarse to 1e-12 at K=32, K0=4")
    sys = system_store(32, 5.0)
    for tau, alpha in ((1e-6, 0.5), (0.01, 0.5)):  # tau^alpha = 1e-3 and 0.1
        h = build_hierarchy(sys, tau, alpha, GaussSeidelForward(), K0=4)
        for i, P in enumerate(h.prolongations):
            dev = abs((P.T @ h.levels[i + 1].B @ P) - h.levels[i].B).max()
            rel = dev / abs(h.levels[i].B).max()
            crit.check(rel <= 1e-12,
                       f"tau^a={tau**alpha:.0e} level {i}: {rel:.2e}")
    crit.finish()


def test_c06_contraction_pairs(system_store):
    crit = _Criterion("C6", "kappa in (0,1), GS below damped Jacobi, all cells")
    for K in (32, 64):
        sys = system_store(K, 5.0)
        for alpha in (0.2, 0.5, 0.8):
            for N in (40, 320):
                tau = 1.0 / N
                kappas = {}
                for smoother, name in ((GaussSeidelForward(), "gs"),
                                       (DampedJacobi(), "jacobi")):
                    h = build_hierarchy(sys, tau, alpha, smoother)
                    kappas[name] = h.kappa
                cell = f"K={K} alpha={alpha} N={N}"
                crit.check(0.0 < kappas["gs"] < 1.0, f"{cell}: gs kappa out of range")
                crit.check(0.0 < kappas["jacobi"] < 1.0,
                           f"{cell}: jacobi kappa out of range")
                crit.check(kappas["gs"] < kappas["jacobi"],
                           f"{cell}: gs {kappas['gs']:.3f} !< jac {kappas['jacobi']:.3f}")
    crit.finish()


def test_c07_direct_solver_rates(system_store, reference_store):
    crit = _Criterion("C7", "direct-solver rates in [0.9,1.1] at K=64")
    sys = system_store(64, 5.0)
    for alpha in (0.2, 0.5, 0.8):
        ref = reference_store(1, alpha, 64)
        errs = [error_report(run_exact(example_problem(1, sys, alpha, N)),
                             ref, sys)
                for N in (40, 80, 160, 320)]
        for N, rate in zip((80, 160, 320), rates_from(errs)):
            crit.check(0.9 <= rate <= 1.1, f"alpha={alpha} N={N}: rate {rate:.3f}")
    crit.finish()


def test_c08_paper_scale_error_band(system_store, reference_store):
    crit = _Criterion("C8", "K=128 GS fixed:2 band at N=320")
    expected = 7.03e-5  # published final-error cell for this configuration
    sys = system_store(128, 5.0)
    ref = reference_store(1, 0.5, 128)
    errs = {}
    for N in (160, 320):
        spec = example_problem(1, sys, 0.5, N)
        h = build_hierarchy(sys, spec.grid.tau, 0.5, GaussSeidelForward())
        errs[N] = error_report(run_iis(spec, LogSchedule(a=2), h), ref, sys)
    rate = math.log2(errs[160] / errs[320])
    crit.check(abs(errs[320] - expected) <= 0.1 * expected,
               f"e320 {errs[320]:.3e} not within 10% of {expected:.2e}")
    crit.check(abs(rate - 0.99) <= 0.15, f"rate {rate:.3f} not within 0.15 of 0.99")
    crit.finish()


def test_c09_instability_signature(system_store, reference_store):
    crit = _Criterion("C9", "single-cycle instability vs triple-cycle stability")
    sys = system_store(64, 5.0)
    any_unstable = False
    for alpha in (0.2, 0.5, 0.8):
        ref = reference_store(1, alpha, 64)
        errors = {}
        for m in (1, 3):
            errs = []
            for N in FULL_NS:
                spec = example_problem(1, sys, alpha, N)
                h = build_hierarchy(sys, spec.grid.tau, alpha, DampedJacobi())
                traj = run_iis(spec, LogSchedule(a=m), h)
                errs.append(error_report(traj, ref, sys))
            errors[m] = errs
        if any(r < 0.6 or r > 1.4 for r in rates_from(errors[1])):
            any_unstable = True
        stable_rates = rates_from(errors[3])[2:]  # rates at N = 80, 160, 320
        for N, rate in zip((80, 160, 320), stable_rates):
            crit.check(0.85 <= rate <= 1.15,
                       f"m=3 alpha={alpha} N={N}: rate {rate:.3f}")
    crit.check(any_unstable, "no single-cycle rate left [0.6, 1.4] for any alpha")
    crit.finish()


def test_c10_nonsmooth_schedules(system_store, reference_store):
    crit = _Criterion("C10", "nonsmooth-data schedules at K=64")
    sys = system_store(64, 5.0)
    # (a) one Gauss-Seidel cycle per step maintains first order
    for alpha in (0.2, 0.5, 0.8):
        ref = reference_store(2, alpha, 64)
        errs = []
        for N in FULL_NS:
            spec = example_problem(2, sys, alpha, N)
            h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
            traj = run_iis(spec, LogSchedule(a=1, b=0), h)
            errs.append(error_report(traj, ref, sys))
        for N, rate in zip(FULL_NS[2:], rates_from(errs)[1:]):
            crit.check(0.9 <= rate <= 1.1,
                       f"(a) alpha={alpha} N={N}: rate {rate:.3f}")
    # (b) fixed Jacobi budget degrades; log schedule restores.  Run with the
    # undamped point-Jacobi smoother, the weakest cycle this solver fields.
    alpha = 0.8
    ref = reference_store(2, alpha, 64)
    rate_sets = {}
    for b in (0, 6):
        errs = []
        for N in FULL_NS:
            spec = example_problem(2, sys, alpha, N)
            h = build_hierarchy(sys, spec.grid.tau, alpha, DampedJacobi(omega=1.0))
            traj = run_iis(spec, LogSchedule(a=3, b=b), h)
            errs.append(error_report(traj, ref, sys))
        rate_sets[b] = rates_from(errs)
    crit.check(any(r <= 0.6 for r in rate_sets[0]),
               f"(b) no fixed-budget rate <= 0.6 (min {min(rate_sets[0]):.2f}); "
               f"signature requires K=128, see supplement")
    for N, rate in zip(FULL_NS[1:], rate_sets[6]):
        if N >= 160:
            crit.check(0.8 <= rate <= 1.15,
                       f"(b) restore N={N}: rate {rate:.3f}")
    crit.finish()


def test_c10_supplement_paper_scale(system_store, reference_store):
    """Full-resolution twin of the C10(b) signature: K=128, undamped Jacobi."""
    crit = _Criterion("C10-supplement", "degradation signature at K=128")
    sys = system_store(128, 5.0)
    alpha = 0.8
    ref = reference_store(2, alpha, 128)
    rate_sets = {}
    for b in (0, 6):
        errs = []
        for N in FULL_NS:
            spec = example_problem(2, sys, alpha, N)
            h = build_hierarchy(sys, spec.grid.tau, alpha, DampedJacobi(omega=1.0))
            traj = run_iis(spec, LogSchedule(a=3, b=b), h)
            errs.append(error_report(traj, ref, sys))
        rate_sets[b] = rates_from(errs)
    crit.check(any(r <= 0.6 for r in rate_sets[0]),
               f"no fixed-budget rate <= 0.6 (min {min(rate_sets[0]):.2f})")
    for N, rate in zip(FULL_NS[1:], rate_sets[6]):
        if N >= 160:
            crit.check(0.8 <= rate <= 1.15, f"restore N={N}: rate {rate:.3f}")
    crit.finish()


def test_c11_theory_schedule(system_store, reference_store):
    crit = _Criterion("C11", "measured-contraction schedule keeps first order")
    sys = system_store(64, 5.0)
    for alpha in (0.2, 0.5, 0.8):
        ref = reference_store(2, alpha, 64)
        errs = []
        for N in (40, 80, 160, 320):
            spec = example_problem(2, sys, alpha, N)
            h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
            schedule = TheoryNonsmoothData(delta=0.1)
            traj = run_iis(spec, schedule, h)
            errs.append(error_report(traj, ref, sys))
            counts = [rec.iterations for rec in traj.records if not rec.exact]
            crit.check(all(a >= b for a, b in zip(counts, counts[1:])),
                       f"alpha={alpha} N={N}: iteration counts not non-increasing")
        for N, rate in zip((80, 160, 320), rates_from(errs)):
            crit.check(0.85 <= rate <= 1.15,
                       f"alpha={alpha} N={N}: rate {rate:.3f}")
    crit.finish()
