"""The run process: set up one workload, time its call, check its output.

    python3 perfbench/worker.py REQUEST.json RESULT.json

``run.py`` starts this file with the BLAS thread count pinned and
``src`` on ``PYTHONPATH``; it is not meant to be run by hand.  Timestamps
that ``run.py`` compares with its own come from CLOCK_MONOTONIC, which is
shared by all processes.

A set-up imports the package afresh from its files (numpy and scipy stay
loaded) and then builds the workload's inputs.  Untraced (``trace`` 0): the
workload is set up SETUP_REPEATS times, and the median set-up is reported.  The call is then timed, with a fresh set-up
before each further call, until ``seconds`` of calls have been measured;
the median call is ``run_s``.  Traced (``trace`` 1): one untraced call gives
the baseline, then the tracer is installed, the workload is set up once
more and called once under tracing.  Oracles are computed after all
timed calls, with tracing off.
"""

import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


import numpy as np  # noqa: E402
import scipy  # noqa: E402

import subdiff.bench  # noqa: E402
import subdiff.cli  # noqa: E402
import subdiff.multigrid  # noqa: E402
import subdiff.stepping  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

T_IMPORTED = mono()

SETUP_REPEATS = 5
PACKAGE = "subdiff"


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _package_modules() -> list:
    return [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]


def fresh_import() -> None:
    """Run the package's import again, as a new process would, then put back
    the modules in use, which the workloads and the tracer hold."""
    in_use = {n: sys.modules.pop(n) for n in _package_modules()}
    try:
        importlib.import_module("subdiff.bench")
        importlib.import_module("subdiff.cli")
    finally:
        for n in _package_modules():
            del sys.modules[n]
        sys.modules.update(in_use)


def timed_setup(wl, samples: list):
    """Set the workload up once, timed, package import included.  Callers
    drop the previous state first, so that it is freed before the next is
    built."""
    gc.collect()
    t = mono()
    fresh_import()
    state = wl.setup()
    samples.append(mono() - t)
    return state


def timed_calls(wl, state, seconds: float, setups: list):
    """Call until ``seconds`` of calls are measured, a fresh set-up before
    each further call.  Returns durations, CPU seconds, output summaries,
    the messages of calls that raised, and the last state.  Only the last
    state is kept: every set-up builds the same inputs."""
    durations, cpu, outputs, errors = [], [], [], []
    while True:
        t, c = mono(), time.process_time()
        try:
            out = wl.call(state)
        except Exception as exc:  # a failed call is counted, not fatal
            errors.append(f"call raised {type(exc).__name__}: {exc}")
            break
        durations.append(mono() - t)
        cpu.append(time.process_time() - c)
        outputs.append(wl.summary(state, out))
        del out
        if sum(durations) >= seconds:
            break
        state = None
        state = timed_setup(wl, setups)
    return durations, cpu, outputs, errors, state


def main(req_path: str, res_path: str) -> None:
    req = json.loads(Path(req_path).read_text(encoding="utf-8"))
    out_dir = Path(req["out"])
    wl = WORKLOADS[req["workload"]](req["params"], out_dir, req["tag"])
    wl.prepare()

    setups = []
    state = None
    for _ in range(SETUP_REPEATS if not req["trace"] else 1):
        state = None
        state = timed_setup(wl, setups)
    # a traced run times one untraced call as the baseline for the overhead
    seconds = 0.0 if req["trace"] else req["seconds"]
    durations, cpu, outputs, errors, state = timed_calls(wl, state, seconds, setups)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    warnings, failures, layers = [], [], {}

    if req["trace"] and not errors:
        tr = tracing.Tracer()
        tracing.instrument(tr, subdiff.stepping, subdiff.multigrid,
                           subdiff.bench, subdiff.cli)
        try:
            setup_span = tr.open("proc.setup")
            traced_state = wl.setup()
            wl.trace_instances(tr, traced_state)
            tr.close(setup_span)
            root = tr.open("proc.run")
            try:
                out = wl.call(traced_state)
            finally:
                tr.close(root)
        except Exception as exc:
            errors.append(f"traced call raised {type(exc).__name__}: {exc}")
        finally:
            tr.restore()
        if not errors:
            outputs.append(wl.summary(traced_state, out))
            del out
            layers, warnings, failures = tracing.layer_metrics(
                tr, root, statistics.median(durations), cpu[0], wl.required,
                wl.tol["trace_overhead_max"])
            for name, want in wl.expected_counts().items():
                got = layers.get(name)
                if got is not None and got != want:
                    failures.append(f"trace: {name} = {got}, expected {want}")
            tracing.write_spans(tr, out_dir / f"{req['tag']}.spans.tsv")

    details = []
    failed = len(errors)
    if outputs:
        oracle = wl.oracle(state)
        for summary in outputs:
            fails, info = wl.check(state, summary, oracle)
            failures += fails
            failed += bool(fails)
            details.append(info)
        if "final" in outputs[-1]:
            np.save(out_dir / f"{req['tag']}.final.npy", outputs[-1]["final"])
    failures += errors
    if failures and not failed:
        failed = 1

    result = dict(
        t_imported=T_IMPORTED,
        setup_s=statistics.median(setups), setup_samples=setups,
        run_s=statistics.median(durations) if durations else None,
        run_samples=durations, cpu_samples=cpu, peak_rss_kb=peak_rss_kb,
        attempted=max(1, len(outputs) + len(errors)), failed=failed,
        failures=failures, warnings=warnings, layers=layers, details=details, numpy=np.__version__, scipy=scipy.__version__,
        blas=blas_info())
    Path(res_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
