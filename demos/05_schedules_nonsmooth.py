"""Iteration schedules for rough initial data.

With piecewise-constant initial data the solution has a start-up singularity
and early steps need more inner iterations.  Shows the logarithmic schedule
M_n = a + b log2(1/t_n) and the schedule derived from the V-cycle's
contraction kappa = |E|_B, including its per-step iteration counts.
"""

import numpy as np

from subdiff import (GaussSeidelForward, LogSchedule, TheoryNonsmoothData,
                     assemble, build_hierarchy, build_mesh,
                     error_report, run_exact, run_iis)
from subdiff.bench import example_problem

K, alpha = 32, 0.8
sys = assemble(build_mesh(K), 5.0)
Ns = (20, 40, 80, 160)
ref = run_exact(example_problem(2, sys, alpha, 16 * Ns[-1])).final

print("=== logarithmic schedules, Gauss-Seidel ===")
for a, b in ((1, 0), (3, 6)):
    errs = []
    for N in Ns:
        spec = example_problem(2, sys, alpha, N)
        h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
        traj = run_iis(spec, LogSchedule(a=a, b=b), h)
        errs.append(error_report(traj, ref, sys))
    rates = ", ".join(f"{np.log2(x / y):.2f}" for x, y in zip(errs, errs[1:]))
    print(f"a={a} b={b}: errors {['%.2e' % e for e in errs]}, observed orders [{rates}]")

print("\n=== schedule from the contraction kappa = |E|_B ===")
N = 160
spec = example_problem(2, sys, alpha, N)
h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
print(f"kappa = |E|_B = {h.kappa:.3f}")
traj = run_iis(spec, TheoryNonsmoothData(delta=0.1), h)
counts = [(rec.n, rec.label) for rec in traj.records]
print("per-step iteration counts (step, M_n):")
print("  early:", counts[:8])
print("  late: ", counts[-4:])
err = error_report(traj, ref, sys)
print(f"final relative error at N={N}: {err:.3e}")
