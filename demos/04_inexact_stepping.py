"""Inexact time stepping on the smooth-source problem, at desk scale.

Compares per-step iteration budgets m = 1, 2, 3 (the rows fixed:1..3)
against the direct solver (the row exact): with one V-cycle per step the
observed order lags below one on the coarse grids, and two or three recover
the exact row's first-order errors.  It then times a step of each kind.
"""

import numpy as np

from subdiff.bench import ExperimentConfig, example_problem, run_example1
from subdiff.fem import assemble, build_mesh
from subdiff.multigrid import GaussSeidelForward, build_hierarchy
from subdiff.stepping import LogSchedule, run_exact, run_iis

K, alpha = 32, 0.5
Ns = (10, 20, 40, 80, 160)

print(f"reference: direct-solver run with N = {16 * Ns[-1]} steps\n")
cfg = ExperimentConfig(K=K, alphas=(alpha,), Ns=Ns, ref_N=16 * Ns[-1])
print(run_example1(cfg).to_markdown(), end="")

print("=== per-step cost from the trajectory records ===")
sys = assemble(build_mesh(K), 5.0)
N = Ns[-1]
spec = example_problem(1, sys, alpha, N)
h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
cost = {}
for label, traj in (("exact", run_exact(spec)),
                    ("m=2", run_iis(spec, LogSchedule(a=2), h))):
    steps = [rec.wall_time for rec in traj.records if rec.n > 2]
    cost[label] = np.mean(steps)
    print(f"{label:>6}: mean {1e3 * cost[label]:.3f} ms/step over {len(steps)} steps")
print(f"\nHere a step of two V-cycles costs {cost['m=2'] / cost['exact']:.1f} times an")
print("exact step (a backsolve with the factor built once).  At K=256 a V-cycle")
print("costs a third of a banded solve; where the two break even depends on the")
print("host (ROADMAP item 7).")
