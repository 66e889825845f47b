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


LOWER = {"run_s": {"name": "run_s", "better": "lower", "bound": 0.25}}


def paired(parent, change, name="run_s"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            r = record(side, seed)
            r["result"] = {"metrics": {name: {"value": value}}}
            runs.append(r)
    return runs


def test_gain_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    nine = [v - 1.0 for v in parent[:9]] + [parent[9] + 0.1]
    m = perf_pairs.summarize(paired(parent, nine), ["iis"], LOWER)["iis"]["metrics"]["run_s"]
    assert (m["change_lower_pairs"], m["gain_rule_holds"], m["within_bound"]) == (9, True, True)
    eight = nine[:8] + [parent[8] + 0.1, parent[9] + 0.1]
    m = perf_pairs.summarize(paired(parent, eight), ["iis"], LOWER)["iis"]["metrics"]["run_s"]
    assert (m["change_lower_pairs"], m["gain_rule_holds"]) == (8, False)
    # better in every pair, but by less than the parent's spread
    m = perf_pairs.summarize(paired(parent, [v - 0.05 for v in parent]), ["iis"],
                             LOWER)["iis"]["metrics"]["run_s"]
    assert m["change_lower_pairs"] == 10
    assert m["median_gap"] < m["parent_iqr"]
    assert not m["gain_rule_holds"]


def test_bound_is_a_fraction_of_the_parent_median_in_the_metric_direction():
    parent = [10.0] * 10
    for change, within in ((12.5, True), (12.6, False), (7.0, True)):
        m = perf_pairs.summarize(paired(parent, [change] * 10), ["iis"],
                                 LOWER)["iis"]["metrics"]["run_s"]
        assert m["within_bound"] is within
        assert not m["gain_rule_holds"] or change < 10.0
    higher = {"cpu_util": {"name": "cpu_util", "better": "higher", "bound": 0.2}}
    for change, within, gain in ((8.0, True, False), (7.9, False, False), (11.0, True, True)):
        m = perf_pairs.summarize(paired(parent, [change] * 10, "cpu_util"), ["iis"],
                                 higher)["iis"]["metrics"]["cpu_util"]
        assert (m["within_bound"], m["gain_rule_holds"]) == (within, gain)


def test_metrics_outside_the_benchmark_get_no_verdict():
    m = perf_pairs.summarize(paired([1.0, 2.0], [0.5, 1.5]), ["iis"])["iis"]["metrics"]["run_s"]
    assert "gain_rule_holds" not in m and "within_bound" not in m
