"""Inexact time stepping on the smooth-source problem, at desk scale.

Compares per-step iteration budgets m = 1, 2, 3 against the direct solver:
one V-cycle per step is unstable (wildly varying observed orders), two or
three recover clean first-order convergence at a fraction of the cost.
"""

import numpy as np

from subdiff import (GaussSeidelForward, LogSchedule, assemble,
                     build_hierarchy, build_mesh, error_report, run_exact, run_iis)
from subdiff.bench import example_problem

K, alpha = 32, 0.5
sys = assemble(build_mesh(K), 5.0)
Ns = (10, 20, 40, 80, 160)

print(f"reference: direct-solver run with N = {16 * Ns[-1]} steps")
ref = run_exact(example_problem(1, sys, alpha, 16 * Ns[-1])).final

rows = {}
for label, m in (("m=1", 1), ("m=2", 2), ("m=3", 3), ("exact", None)):
    errs = []
    for N in Ns:
        spec = example_problem(1, sys, alpha, N)
        if m is None:
            traj = run_exact(spec)
        else:
            h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
            traj = run_iis(spec, LogSchedule(a=m), h)
        errs.append(error_report(traj, ref, sys))
    rows[label] = errs

header = "  ".join(f"N={N:<8d}" for N in Ns)
print(f"\n{'':>6} {header}")
for label, errs in rows.items():
    cells = "  ".join(f"{e:.3e}" for e in errs)
    rates = "  ".join(f"{np.log2(a / b):9.2f}" for a, b in zip(errs, errs[1:]))
    print(f"{label:>6} {cells}")
    print(f"{'rate':>6} {'':>10} {rates}")

print("\n=== per-step cost from the trajectory records ===")
N = Ns[-1]
spec = example_problem(1, sys, alpha, N)
h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
for label, traj in (("exact", run_exact(spec)),
                    ("m=2", run_iis(spec, LogSchedule(a=2), h))):
    steps = [rec.wall_time for rec in traj.records if rec.n > 2]
    print(f"{label:>6}: mean {1e3 * np.mean(steps):.3f} ms/step over {len(steps)} steps")
print("\nAt this desk scale the amortized factorization backsolve is cheap;")
print("the scheduled V-cycles win once factoring the fine system becomes")
print("the bottleneck, while matching its accuracy (table above).")
