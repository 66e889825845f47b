"""Iteration schedules for rough initial data.

With piecewise-constant initial data the solution has a start-up singularity
and early steps need more inner iterations.  Shows the logarithmic schedule
M_n = a + b log2(1/t_n) and the schedule derived from the V-cycle's
contraction kappa = |E|_B, including its per-step iteration counts.
"""

from subdiff.bench import ExperimentConfig, example_problem, run_example2
from subdiff.fem import assemble, build_mesh
from subdiff.multigrid import GaussSeidelForward, build_hierarchy
from subdiff.stepping import TheoryNonsmoothData, run_iis

K, alpha = 32, 0.8
Ns = (20, 40, 80, 160)

print("=== logarithmic and kappa-driven schedules, Gauss-Seidel ===")
rows = ("log:1,0", "log:3,6", "theory-nonsmooth:0.1")
cfg = ExperimentConfig(K=K, alphas=(alpha,), Ns=Ns, ref_N=16 * Ns[-1], schedules=rows)
print(run_example2(cfg).to_markdown(), end="")

print("=== schedule from the contraction kappa = |E|_B ===")
sys = assemble(build_mesh(K), 5.0)
spec = example_problem(2, sys, alpha, Ns[-1])
h = build_hierarchy(sys, spec.grid.tau, alpha, GaussSeidelForward())
print(f"kappa = |E|_B = {h.kappa:.3f} at N={Ns[-1]}")
traj = run_iis(spec, TheoryNonsmoothData(delta=0.1), h)
counts = [(rec.n, rec.iterations or "exact") for rec in traj.records]
print("per-step iteration counts (step, M_n):")
print("  early:", counts[:8])
print("  late: ", counts[-4:])
