"""Benchmark command: run one workload in one fresh run process and report.

    python3 perfbench/run.py --workload {reference,iis,table} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  This file uses the standard library only.
It turns the seed into workload inputs, pins the BLAS thread count in the
run process's environment, starts ``perfbench/worker.py`` as the single run
process, and waits for it.  It then prints each metric as ``name value unit``,
a provenance line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, and
``--trace 1`` reports its per-layer metrics.  Exit codes: 0 when every output
check passed; 1 when a check failed, or when the run process failed or timed
out; 2 when the tree has no ``src/subdiff`` package to measure.  The last two
cases print no result.  ``--tiny`` swaps in sizes that run in seconds, for
the self-tests in ``test_perfbench.py``.
"""

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reference", "iis", "table")

# One BLAS thread: with two, the reference run spread over 15.9-27.1 s in
# five runs on a 2-core machine; with one it spread over 40.3-42.5 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy asks for transparent huge pages on large arrays; whether the kernel
# grants them depends on what else runs on the machine, and it moved the
# peak RSS of one iis input over 184-204 MB.  Without the advice it stayed
# within 198-201 MB.
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
RUN_TIMEOUT_S = 170


def workload_params(name: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one run.  Only alpha (and, for iis, the discontinuity lines)
    depends on the seed; sizes and schedules never do, so every count is
    the same for every seed.  Seed 0 is the stock problem."""
    rng = random.Random(seed)
    alpha = 0.5 if seed == 0 else rng.uniform(0.2, 0.8)
    p = dict(alpha=alpha, T=1.0, c_A=5.0, K0=4, nu1=1, nu2=1, startup=2)
    if name == "reference":
        p.update(K=64, N=5120, coarse_N=640)
        if tiny:
            p.update(K=8, N=64, coarse_N=16)
    elif name == "iis":
        a, b = (0.0, 0.0) if seed == 0 else (rng.uniform(-0.5, 0.5),
                                             rng.uniform(-0.5, 0.5))
        p.update(K=128, N=320, a=a, b=b, log_a=3, log_b=6)
        if tiny:
            p.update(K=16, N=20)
    elif name == "table":
        # Ns=None keeps the CLI defaults (N = 10..320, rows log:3,0,
        # log:3,3, log:3,6 and exact).  The scoring reference is an exact
        # run with 4x the largest N, produced before set-up, outside timing.
        p.update(K=64, Ns=None, ref_N=1280)
        if tiny:
            p.update(K=8, Ns=[10, 20], ref_N=80)
    else:
        raise ValueError(f"unknown workload {name!r}")
    p.update(seed=seed, tiny=tiny)
    return p


def run_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    env.update(NUMPY_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _read(path, default=""):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return default


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind == "Unified":
            sizes[f"L{level}"] = _read(index / "size").strip()
    return sizes


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref).strip()
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def provenance(args, params, child: dict) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return dict(
        python=platform.python_version(),
        numpy=child.get("numpy"), scipy=child.get("scipy"),
        blas=child.get("blas"), blas_threads=BLAS_THREADS,
        blas_env={v: str(BLAS_THREADS) for v in BLAS_ENV}, numpy_env=NUMPY_ENV,
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        cpu=model, cache=_cache_sizes(), commit=_git_commit(),
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, params=params)


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole timed calls until this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "subdiff" / "__init__.py").is_file():
        print(f"no package to measure: {ROOT / 'src' / 'subdiff'} is missing",
              file=sys.stderr)
        return 2
    params = workload_params(args.workload, args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tag += "-tiny" if args.tiny else ""
    request = dict(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, params=params,
                   out=str(OUT), tag=tag)
    req_path = OUT / f"{tag}.request.json"
    res_path = OUT / f"{tag}.result.json"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    res_path.unlink(missing_ok=True)

    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(req_path), str(res_path)],
            env=run_env(), cwd=ROOT, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run process exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1
    if proc.returncode != 0 or not res_path.is_file():
        print(f"run process failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(res_path.read_text(encoding="utf-8"))

    if args.trace:
        values = child["layers"]
    else:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = dict(
            run_s=child["run_s"], setup_s=child["setup_s"],
            peak_rss_mb=max(child["peak_rss_kb"], own_kb) / 1024.0)
    failures = list(child["failures"])
    metrics = {}
    for m in declared_metrics(args.trace):
        name = m["name"]
        if name not in values:
            failures.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{name} {values[name]} {m['unit']}")
    for msg in child["warnings"]:
        print(f"warning: {msg}", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    prov = provenance(args, params, child)
    # interpreter start and first imports, too noisy here for a bound
    startup_s = child["t_imported"] - t_spawn
    record = dict(provenance=prov, metrics=metrics, startup_s=startup_s,
                  failures=failures, warnings=child["warnings"],
                  details=child["details"])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                     encoding="utf-8")
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = not failures and child["failed"] == 0
    # a failure found here, not tied to one call, fails every call
    failed = child["failed"] or (0 if correct else child["attempted"])
    print(json.dumps(dict(correct=correct, attempted=child["attempted"],
                          failed=failed, metrics=metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
