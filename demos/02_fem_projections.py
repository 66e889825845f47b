"""Finite elements on the square: assembly, projections, and the
operator identity linking the energy projection to the weak form.
"""

import numpy as np

from subdiff import assemble, build_mesh, l2_norm, l2_project, load_vector, ritz_project
from subdiff.fem import Factor, l2_error_vs_function

print("=== mesh and matrices ===")
for K in (8, 32, 128):
    mesh = build_mesh(K)
    print(f"K={K:4d}: {mesh.n_interior:6d} interior nodes, "
          f"{len(mesh.triangles):6d} triangles, h={mesh.h:.4f}")

sys = assemble(build_mesh(32), 5.0)
print(f"\nassembled K=32, c_A=5: M nnz={sys.M.nnz}, S nnz={sys.S.nnz}")

print("\n=== L2 projection of the piecewise-constant initial data ===")
v = lambda x, y: (x < 0.0).astype(float) + (y < 0.0).astype(float)
proj = l2_project(sys, v)
print(f"||P_h v|| = {l2_norm(sys, proj):.6f}  (continuous norm sqrt(6) = {np.sqrt(6):.6f})")

print("\n=== energy projection identity: S R_h v = F(Av) ===")
c_A = sys.c_A
grad = lambda x, y: (-2 * x * (1 - y * y), -2 * y * (1 - x * x))
av = lambda x, y: c_A * (2 * (1 - y * y) + 2 * (1 - x * x))
R = ritz_project(sys, grad=grad)
rhs = load_vector(sys.mesh, av)
print(f"relative max deviation: "
      f"{np.max(np.abs(sys.S @ R - rhs)) / np.max(np.abs(rhs)):.3e}")

print("\n=== steady solve converges at O(h^2) ===")
exact = lambda x, y: (1 - x * x) * (1 - y * y)
rhs_fn = lambda x, y: 2 * (1 - y * y) + 2 * (1 - x * x)
prev = None
for K in (8, 16, 32, 64):
    s = assemble(build_mesh(K), 1.0)
    u = Factor(s.S).solve(load_vector(s.mesh, rhs_fn))
    err = l2_error_vs_function(s, u, exact)
    note = "" if prev is None else f"  ratio {prev / err:.2f}"
    print(f"K={K:3d}: L2 error {err:.3e}{note}")
    prev = err
