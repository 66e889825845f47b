"""Multigrid on the per-step operator B = M + tau^alpha S.

Builds nested hierarchies, shows the V-cycle driving a random start to the
solution, and prints the contraction kappa = |E|_B of one cycle (the norm
of its error propagation E) for both smoothers across the time-step range
used by the benchmarks, through the benchmark's contraction sweep.
"""

import numpy as np

from subdiff.bench import ExperimentConfig, run_contraction_sweep
from subdiff.fem import assemble, build_mesh
from subdiff.multigrid import (DampedJacobi, GaussSeidelForward, build_hierarchy,
                               level_sizes, vcycle)

sys = assemble(build_mesh(64), 5.0)

print("=== one V-cycle solve, Gauss-Seidel smoothing ===")
h = build_hierarchy(sys, tau=1.0 / 320, alpha=0.5, smoother=GaussSeidelForward())
print("levels:", level_sizes(64, 4))
rng = np.random.default_rng(0)
x_star = rng.standard_normal(sys.dim)
rhs = h.fine.B @ x_star
x = np.zeros(sys.dim)
for cycle in range(1, 9):
    x = vcycle(h, x, rhs, rhs - h.fine.B @ x)[0]
    err = h.weighted_norm(x - x_star) / h.weighted_norm(x_star)
    print(f"cycle {cycle}: relative error {err:.3e}")

print("\n=== contraction kappa = |E|_B of one V-cycle ===")
print(run_contraction_sweep(ExperimentConfig(K=64, Ns=(40, 320))).to_markdown())
print("Gauss-Seidel contracts roughly twice as fast per cycle; undamped")
print("Jacobi (omega=1.0) barely touches the highest-frequency mode:")
hh = build_hierarchy(sys, 1.0 / 320, 0.8, DampedJacobi(omega=1.0))
print(f"kappa(omega=1.0) = {hh.kappa:.3f}")
