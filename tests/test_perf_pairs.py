"""The pair summary of tools/perf_pairs.py, on synthetic run records."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)


def record(side, seed, run_s=None, trace=0, exit=0, workload="iis"):
    result = None if run_s is None else {"metrics": {"run_s": {"value": run_s}}}
    return dict(side=side, workload=workload, seed=seed, seconds=1.0,
                trace=trace, exit=exit, result=result, wall_s=1.0)


def test_ties_count_for_neither_side():
    runs = [record("parent", 1, 2.0), record("change", 1, 2.0),
            record("parent", 2, 2.0), record("change", 2, 1.5),
            record("parent", 3, 2.0), record("change", 3, 2.5)]
    m = perf_pairs.summarize(runs, ["iis"])["iis"]["metrics"]["run_s"]
    assert m["pairs"] == 3
    assert m["change_lower_pairs"] == 1


def test_a_seed_missing_one_side_drops_out_of_the_pairs():
    runs = [record("parent", 1, 2.0), record("change", 1, 1.0),
            record("parent", 2, 2.0),
            record("change", 3, 1.0),
            record("parent", 4, 2.0), record("change", 4, None, exit=1)]
    s = perf_pairs.summarize(runs, ["iis"])["iis"]
    assert s["metrics"]["run_s"]["pairs"] == 1
    assert s["metrics"]["run_s"]["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
    assert s["failed_runs"] == 1


def test_pair_and_traced_failures_are_counted_apart():
    runs = [record("parent", 1, 2.0), record("change", 1, 1.0, exit=1),
            record("parent", 0, 2.0, trace=1, exit=1),
            record("change", 0, 1.0, trace=1, exit=1),
            record("change", 1, 1.0, exit=1, workload="table")]
    s = perf_pairs.summarize(runs, ["iis", "table"])
    assert (s["iis"]["failed_runs"], s["iis"]["failed_traced_runs"]) == (1, 2)
    assert (s["table"]["failed_runs"], s["table"]["failed_traced_runs"]) == (1, 0)
    assert s["iis"]["metrics"] == {}
