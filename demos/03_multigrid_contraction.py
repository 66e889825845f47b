"""Multigrid on the per-step operator B = M + tau^alpha S.

Builds nested hierarchies, shows the V-cycle driving a random start to the
solution, and computes the contraction kappa = |E|_B of one cycle (the norm
of its error propagation E) for both smoothers across the time-step range
used by the benchmarks.
"""

import numpy as np

from subdiff import (DampedJacobi, GaussSeidelForward, assemble, build_hierarchy,
                     build_mesh, multigrid, vcycle)

sys = assemble(build_mesh(64), 5.0)

print("=== one V-cycle solve, Gauss-Seidel smoothing ===")
h = build_hierarchy(sys, tau=1.0 / 320, alpha=0.5, smoother=GaussSeidelForward())
print("levels:", multigrid.level_sizes(64, 4))
rng = np.random.default_rng(0)
x_star = rng.standard_normal(sys.dim)
rhs = h.fine.B @ x_star
x = np.zeros(sys.dim)
for cycle in range(1, 9):
    x = vcycle(h, x, rhs)
    err = h.weighted_norm(x - x_star) / h.weighted_norm(x_star)
    print(f"cycle {cycle}: relative error {err:.3e}")

print("\n=== contraction kappa = |E|_B of one V-cycle ===")
print(f"{'alpha':>6} {'N':>5} {'gs kappa':>9} {'jacobi kappa':>13}")
for alpha in (0.2, 0.5, 0.8):
    for N in (40, 320):
        row = []
        for smoother in (GaussSeidelForward(), DampedJacobi()):
            hh = build_hierarchy(sys, 1.0 / N, alpha, smoother)
            row.append(hh.kappa)
        print(f"{alpha:6.1f} {N:5d} {row[0]:9.3f} {row[1]:13.3f}")
print("\nGauss-Seidel contracts roughly twice as fast per cycle; undamped")
print("Jacobi (omega=1.0) barely touches the highest-frequency mode:")
hh = build_hierarchy(sys, 1.0 / 320, 0.8, DampedJacobi(omega=1.0))
print(f"kappa(omega=1.0) = {hh.kappa:.3f}")
