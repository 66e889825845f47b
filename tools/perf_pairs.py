"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/perf_pairs.py --parent REV --change REV --seeds 3201-3210 \
        --seconds 18 --out BENCH_name.json [--workloads iis,table,reference] \
        [--traced] [--work DIR]

Run it from the repository root; it uses the standard library only.  Each
revision is exported with ``git archive`` into its own directory under
``--work`` (a temporary directory by default), so both sides run from
committed files.  For every seed and workload it runs
``perfbench/run.py --trace 0`` once per side, the parent first on even-indexed
seeds and the change first on odd ones.  ``--traced`` adds one seed-0
``--trace 1`` run per workload and side, after the pairs.  Every run is kept
in the output, with a summary per workload and end-to-end metric: the median
and quartiles of each side, the number of pairs in which the change is lower,
and the median gap.  Each workload also counts its failed runs (non-zero
exit) apart for the pairs and for the traced runs, whose exit is 1 when a
seed-0 count misses perfbench's ``expected_counts``.  A record is also
appended to ``runs.jsonl`` under the work directory as soon as its run ends.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; return the full hash."""
    commit = subprocess.run(["git", "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.parent / f"{dest.name}.tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", commit], check=True, stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    t0 = time.time()
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return dict(workload=workload, seed=seed, seconds=seconds, trace=trace,
                exit=p.returncode, result=result, wall_s=round(time.time() - t0, 2))


def quartiles(v: list) -> list:
    if len(v) < 2:
        return v * 3
    q = statistics.quantiles(v, n=4, method="inclusive")
    return [q[0], statistics.median(v), q[2]]


def summarize(runs: list, workloads: list) -> dict:
    out = {}
    for wl in workloads:
        pairs = {}
        for r in runs:
            if r["workload"] == wl and r["trace"] == 0:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if all(
            s in p and p[s]["result"] and p[s]["exit"] == 0 for s in SIDES)]
        failed = [sum(r["workload"] == wl and r["trace"] == t and r["exit"] != 0
                      for r in runs) for t in (0, 1)]
        metrics = {}
        names = pairs[0]["parent"]["result"]["metrics"] if pairs else {}
        for name in names:
            v = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs]
                 for s in SIDES}
            q = {s: quartiles(v[s]) for s in SIDES}
            metrics[name] = dict(
                parent_q1_median_q3=q["parent"], change_q1_median_q3=q["change"],
                parent_iqr=q["parent"][2] - q["parent"][0],
                median_gap=q["parent"][1] - q["change"][1],
                change_lower_pairs=sum(c < p for p, c in zip(v["parent"], v["change"])),
                pairs=len(pairs))
        out[wl] = dict(failed_runs=failed[0], failed_traced_runs=failed[1],
                       metrics=metrics)
    return out


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 3201-3210")
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--workloads", default="iis,table,reference")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--work", type=Path)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    work = args.work or Path(tempfile.mkdtemp(prefix="perf_pairs_"))
    trees = {s: work / s for s in SIDES}
    commits = {s: export(getattr(args, s), trees[s]) for s in SIDES}
    log = work / "runs.jsonl"
    runs = []

    def record(side, r):
        r = dict(side=side, **r)
        runs.append(r)
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps(r) + "\n")

    for i, seed in enumerate(args.seeds):
        for wl in workloads:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                record(side, run(trees[side], wl, seed, args.seconds, 0))
    if args.traced:
        for wl in workloads:
            for side in SIDES:
                record(side, run(trees[side], wl, 0, args.seconds, 1))
    doc = dict(command=" ".join(["python3", "tools/perf_pairs.py"] + (argv or sys.argv[1:])),
               commits=commits, python=platform.python_version(),
               nproc=os.cpu_count(), summary=summarize(runs, workloads), runs=runs)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
