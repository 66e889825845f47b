"""The three workloads: set-up, timed call, output summary, oracle and checks.

Each workload calls the package's public entry points.  It looks up
``assemble``, ``build_hierarchy``, ``run_exact``, ``run_iis`` and
``error_report`` on ``subdiff.bench`` at call time: those are the names
bench.py imports, so a traced run that wraps them there also sees the
benchmark's own calls.  Tolerances live in ``tolerances.json``.
"""

import json
import math
from pathlib import Path

import numpy as np

import subdiff.bench as sb
import subdiff.cli as cli
from subdiff.cq import TimeGrid
from subdiff.fem import l2_norm
from subdiff.multigrid import GaussSeidelForward
from subdiff.stepping import L2Projected, LogSchedule, ProblemSpec

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
_TOL = json.loads((HERE / "tolerances.json").read_text(encoding="utf-8"))

TABLE_NS = (10, 20, 40, 80, 160, 320)
TABLE_ROWS = ("log:3,0", "log:3,3", "log:3,6", "exact")


def rel_gap(system, x, ref) -> float:
    """Relative distance in the mass norm."""
    return l2_norm(system, x - ref) / l2_norm(system, ref)


def log_schedule_cycles(a: int, b: int, N: int, T: float, startup: int) -> int:
    """Sum of M_n = a + ceil(b log2(1/t_n)), at least 1, over the steps
    after the exact startup."""
    tau = T / N
    return sum(max(1, a + math.ceil(b * math.log2(max(1.0, 1.0 / (n * tau)))))
               for n in range(startup + 1, N + 1))


def levels(K: int, K0: int) -> int:
    return int(round(math.log2(K / K0))) + 1


class Workload:
    """Defaults shared by the workloads.  ``out`` is the directory for the
    run's files and ``tag`` names them."""

    def __init__(self, p: dict, out: Path, tag: str):
        self.p = p
        # the self-test sizes have their own discretization errors and
        # millisecond calls, so some tolerances differ there
        self.tol = {k: v for k, v in _TOL.items() if k != "tiny"}
        if p["tiny"]:
            self.tol.update(_TOL["tiny"])

    def prepare(self) -> None:
        """Work done before set-up and outside all timing."""

    def trace_instances(self, tracer, state) -> None:
        """Wrap entry points on instances the set-up created."""

    def oracle(self, state):
        return None


class Reference(Workload):
    """run_exact on example-1 data: every step a direct solve, and the
    O(N^2) history sum."""

    def setup(self):
        p = self.p
        system = sb.assemble(sb.build_mesh(p["K"]), p["c_A"])
        return sb.example_problem(1, system, p["alpha"], p["N"], p["T"])

    def trace_instances(self, tracer, spec) -> None:
        tracer.patch(spec.source, "load_at", "stepping.load")

    def call(self, spec):
        return sb.run_exact(spec)

    def summary(self, spec, traj) -> dict:
        return dict(final=traj.final.copy(), steps=len(traj.records),
                    exact_steps=sum(r.exact for r in traj.records))

    def oracle(self, spec) -> dict:
        p = self.p
        coarse = sb.example_problem(1, spec.sys, p["alpha"], p["coarse_N"], p["T"])
        return dict(coarse=sb.run_exact(coarse).final)

    def check(self, spec, s: dict, oracle: dict):
        p = self.p
        fails, details = [], {}
        if not np.all(np.isfinite(s["final"])):
            return ["reference: final vector is not finite"], details
        if s["steps"] != p["N"] or s["exact_steps"] != p["N"]:
            fails.append(f"reference: {s['steps']} steps, {s['exact_steps']} exact; "
                         f"expected {p['N']} exact steps")
        gap = rel_gap(spec.sys, oracle["coarse"], s["final"])
        tol = self.tol["reference_coarse_gap_per_unit_step"] * p["T"] * (
            1.0 / p["coarse_N"] - 1.0 / p["N"])
        details.update(coarse_gap=gap, coarse_gap_tol=tol)
        if not 0.0 < gap <= tol:
            fails.append(f"reference: gap {gap:.3e} to the N={p['coarse_N']} "
                         f"exact run is outside (0, {tol:.3e}]")
        expected = EXPECTED / "reference_seed0.npy"
        if p["seed"] == 0 and not p["tiny"]:
            dev = rel_gap(spec.sys, s["final"], np.load(expected))
            details["expected_gap"] = dev
            if not dev <= self.tol["reference_expected_rel"]:
                fails.append(f"reference: final vector is {dev:.3e} from {expected.name}")
        return fails, details

    def expected_counts(self) -> dict:
        N = self.p["N"]
        return {"stepping.steps": N, "multigrid.direct_solves": N,
                "multigrid.vcycles": 0, "multigrid.factorizations": 1}

    required = ("stepping.run", "stepping.step", "stepping.load", "cq.weights",
                "multigrid.factorize", "multigrid.direct_solve", "fem.assemble")


class Iis(Workload):
    """run_iis on rough example-2 data at paper scale: the V-cycle hot path."""

    def setup(self):
        p = self.p
        a, b = p["a"], p["b"]
        system = sb.assemble(sb.build_mesh(p["K"]), p["c_A"])
        spec = ProblemSpec(
            alpha=p["alpha"], grid=TimeGrid(T=p["T"], N=p["N"]), sys=system,
            initial=L2Projected(lambda x, y: (x < a).astype(float) + (y < b).astype(float)))
        h = sb.build_hierarchy(system, spec.grid.tau, p["alpha"],
                               GaussSeidelForward(), p["nu1"], p["nu2"], p["K0"])
        schedule = LogSchedule(a=p["log_a"], b=p["log_b"],
                               exact_startup_steps=p["startup"])
        return spec, h, schedule

    def call(self, state):
        spec, h, schedule = state
        return sb.run_iis(spec, schedule, h)

    def summary(self, state, traj) -> dict:
        return dict(final=traj.final.copy(), steps=len(traj.records),
                    exact_steps=sum(r.exact for r in traj.records),
                    vcycles=sum(r.iterations or 0 for r in traj.records))

    def oracle(self, state) -> dict:
        return dict(exact=sb.run_exact(state[0]).final)

    def check(self, state, s: dict, oracle: dict):
        p = self.p
        fails = []
        if not np.all(np.isfinite(s["final"])):
            return ["iis: final vector is not finite"], {}
        cycles = self.cycles()
        if (s["steps"], s["exact_steps"], s["vcycles"]) != (p["N"], p["startup"], cycles):
            fails.append(f"iis: {s['steps']} steps, {s['exact_steps']} exact, "
                         f"{s['vcycles']} V-cycles; expected {p['N']}, "
                         f"{p['startup']}, {cycles}")
        err = rel_gap(state[0].sys, s["final"], oracle["exact"])
        if not err <= self.tol["iis_err_inexact_max"]:
            fails.append(f"iis: err_inexact {err:.3e} exceeds "
                         f"{self.tol['iis_err_inexact_max']:.1e}")
        return fails, {"err_inexact": err, "vcycles": s["vcycles"]}

    def cycles(self) -> int:
        p = self.p
        return log_schedule_cycles(p["log_a"], p["log_b"], p["N"], p["T"], p["startup"])

    def expected_counts(self) -> dict:
        p = self.p
        c = self.cycles()
        return {"stepping.steps": p["N"], "multigrid.vcycles": c,
                "multigrid.smooth_sweeps": c * (p["nu1"] + p["nu2"]) * (levels(p["K"], p["K0"]) - 1),
                "multigrid.coarse_solves": c, "multigrid.norm_calls": c,
                "multigrid.direct_solves": p["startup"],
                "multigrid.factorizations": 1, "multigrid.builds": 1,
                "fem.projections": 1}

    required = ("stepping.run", "stepping.step", "cq.weights", "multigrid.factorize",
                "multigrid.direct_solve", "multigrid.vcycle", "multigrid.smooth",
                "multigrid.coarse_solve", "multigrid.norm", "multigrid.build",
                "fem.assemble", "fem.project")


class Table(Workload):
    """``subdiff-bench example2`` at desk scale through ``subdiff.cli.main``:
    24 cells of uneven size, each with its own set-up."""

    def __init__(self, p: dict, out: Path, tag: str):
        super().__init__(p, out, tag)
        self.ref_path = out / f"{tag}.ref.npy"
        self.csv_path = out / f"{tag}.csv"
        self.Ns = tuple(p["Ns"] or TABLE_NS)
        self.rows = TABLE_ROWS

    def prepare(self) -> None:
        """Write the scoring reference: an exact run, outside any timing."""
        p = self.p
        system = sb.assemble(sb.build_mesh(p["K"]), p["c_A"])
        spec = sb.example_problem(2, system, p["alpha"], p["ref_N"], p["T"])
        np.save(self.ref_path, sb.run_exact(spec).final)

    def setup(self):
        p = self.p
        ref = np.load(self.ref_path)
        if ref.shape != ((p["K"] - 1) ** 2,) or not np.all(np.isfinite(ref)):
            raise ValueError(f"bad reference vector in {self.ref_path}")
        self.csv_path.unlink(missing_ok=True)
        argv = ["example2", "--K", str(p["K"]), "--alpha", repr(p["alpha"]),
                "--ref-file", str(self.ref_path), "--out", str(self.csv_path)]
        for N in p["Ns"] or ():
            argv += ["--N", str(N)]
        return argv

    def call(self, argv):
        return cli.main(argv)

    def summary(self, argv, code) -> dict:
        text = self.csv_path.read_text(encoding="utf-8") if code == 0 else ""
        return dict(code=code, csv=text)

    def check(self, argv, s: dict, oracle):
        if s["code"] != 0:
            return [f"table: subdiff-bench exited with code {s['code']}"], {}
        fails = []
        try:
            _, cells = parse_table_csv(s["csv"])
        except ValueError as exc:
            return [f"table: unreadable CSV: {exc}"], {}
        want = {(label, N) for label in self.rows for N in self.Ns}
        if set(cells) != want:
            return [f"table: cells {sorted(set(cells) ^ want)} missing or extra"], {}
        alpha = f"{self.p['alpha']:.5e}"
        if any(a != alpha for a, _, _ in cells.values()):
            fails.append(f"table: alpha column differs from {alpha}")
        errs = {k: v[1] for k, v in cells.items()}
        if not all(math.isfinite(e) and e > 0.0 for e in errs.values()):
            return fails + ["table: an error is not finite and positive"], {}
        exact = [errs[("exact", N)] for N in self.Ns]
        if any(b >= a for a, b in zip(exact, exact[1:])):
            fails.append(f"table: exact-row errors do not fall with N: {exact}")
        tol = self.tol["table_iterative_vs_exact_rel"]
        worst = max(abs(errs[(label, N)] / errs[("exact", N)] - 1.0)
                    for label in self.rows for N in self.Ns)
        if not worst <= tol:
            fails.append(f"table: an iterative row is {worst:.3e} from the exact "
                         f"row, beyond {tol}")
        details = {"iterative_vs_exact": worst}
        if self.p["seed"] == 0 and not self.p["tiny"]:
            expected = (EXPECTED / "table_seed0.csv").read_text(encoding="utf-8")
            fails += compare_table(s["csv"], expected,
                                   self.tol["table_expected_eN_rel"],
                                   self.tol["table_expected_rate_abs"])
        return fails, details

    def cycles(self) -> int:
        p = self.p
        total = 0
        for row in self.rows:
            if row != "exact":
                a, b = (int(v) for v in row.split(":")[1].split(","))
                total += sum(log_schedule_cycles(a, b, N, p["T"], p["startup"])
                             for N in self.Ns)
        return total

    def expected_counts(self) -> dict:
        p = self.p
        c = self.cycles()
        n_exact = sum(r == "exact" for r in self.rows)
        n_iter = (len(self.rows) - n_exact) * len(self.Ns)
        cells = len(self.rows) * len(self.Ns)
        return {"bench.cells": cells, "stepping.steps": len(self.rows) * sum(self.Ns),
                "multigrid.vcycles": c, "multigrid.coarse_solves": c,
                "multigrid.smooth_sweeps": c * (p["nu1"] + p["nu2"]) * (levels(p["K"], p["K0"]) - 1),
                "multigrid.direct_solves": n_exact * sum(self.Ns) + p["startup"] * n_iter,
                "multigrid.factorizations": cells, "multigrid.builds": len(self.Ns),
                "fem.projections": cells, "fem.assemblies": 1}

    required = ("bench.table", "bench.cell", "stepping.run", "stepping.step",
                "stepping.error", "cq.weights", "multigrid.factorize",
                "multigrid.direct_solve", "multigrid.vcycle", "multigrid.smooth",
                "multigrid.coarse_solve", "multigrid.norm", "multigrid.build",
                "fem.assemble", "fem.project")


def parse_table_csv(text: str):
    """Metadata line and {(row_label, N): (alpha, eN, rate)} of an example CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[1] != "alpha,row_label,N,eN,rate":
        raise ValueError("not a subdiff-bench error table")
    cells = {}
    for line in lines[2:]:
        alpha, rest = line.split(",", 1)
        label, N, e, rate = rest.rsplit(",", 3)
        cells[(label, int(N))] = (alpha, float(e), float(rate) if rate else None)
    return lines[0], cells


def compare_table(text: str, expected: str, e_tol: float, r_tol: float) -> list:
    """Cell-by-cell comparison with an expected table: errors to ``e_tol``
    relative, rates to ``r_tol`` absolute, the metadata line exactly."""
    meta, cells = parse_table_csv(text)
    meta0, cells0 = parse_table_csv(expected)
    fails = []
    if meta != meta0:
        fails.append(f"table: metadata line {meta!r} differs from {meta0!r}")
    if set(cells) != set(cells0):
        return fails + ["table: cells differ from the expected table"]
    for key, (alpha, e, rate) in cells.items():
        alpha0, e0, rate0 = cells0[key]
        ok = alpha == alpha0 and abs(e / e0 - 1.0) <= e_tol and (
            rate0 is None if rate is None
            else rate0 is not None and abs(rate - rate0) <= r_tol)
        if not ok:
            fails.append(f"table: cell {key} reads {(alpha, e, rate)}, "
                         f"expected {(alpha0, e0, rate0)}")
    return fails


WORKLOADS = {"reference": Reference, "iis": Iis, "table": Table}
