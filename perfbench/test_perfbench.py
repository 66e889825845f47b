"""Self-tests of the benchmark at tiny sizes (K=8 or 16, N <= 64).

    python3 -m pytest perfbench -q

They run the command end to end, check every declared metric and its unit,
compare traced counts with closed forms, and make sure corrupted outputs,
a broken program and a missing package all fail.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import subdiff.bench  # noqa: E402
import subdiff.cli  # noqa: E402
import subdiff.multigrid  # noqa: E402
import subdiff.stepping  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, compare_table  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, seed=0, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def log_cycles(a, b, N, startup=2):
    """Sum over steps n > startup of a + ceil(b log2(N/n))."""
    return sum(a + math.ceil(b * math.log2(N / n)) for n in range(startup + 1, N + 1))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(workload, trace, seed=7)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} {got['value']} {m['unit']}" in lines
    assert any(line.startswith("provenance {") for line in lines)


def traced_counts(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def test_reference_counts():
    m = traced_counts("reference")
    assert (m["stepping.steps"], m["multigrid.direct_solves"], m["multigrid.vcycles"]) == (64, 64, 0)


def test_iis_counts():
    m = traced_counts("iis")
    cycles = log_cycles(3, 6, 20)
    levels = 3  # K = 16 over K0 = 4
    assert m["stepping.steps"] == 20
    assert m["multigrid.vcycles"] == m["multigrid.coarse_solves"] == cycles
    assert m["multigrid.smooth_sweeps"] == cycles * (1 + 1) * (levels - 1)
    assert m["multigrid.direct_solves"] == 2


def test_table_counts():
    m = traced_counts("table")
    Ns = (10, 20)
    cycles = sum(log_cycles(3, b, N) for b in (0, 3, 6) for N in Ns)
    assert m["bench.cells"] == m["multigrid.factorizations"] == 8
    assert m["stepping.steps"] == 4 * sum(Ns)
    assert m["multigrid.vcycles"] == cycles
    assert m["multigrid.smooth_sweeps"] == cycles * (1 + 1) * (2 - 1)
    # exact rows solve every step; iterative cells solve their 2 startup steps
    assert m["multigrid.direct_solves"] == sum(Ns) + 2 * 3 * len(Ns)


def tiny_run(workload, tmp_path, seed=0):
    wl = WORKLOADS[workload](run.workload_params(workload, seed, tiny=True), tmp_path, "t")
    wl.prepare()
    state = wl.setup()
    summary = wl.summary(state, wl.call(state))
    return wl, state, summary, wl.oracle(state)


def test_corrupted_reference_fails(tmp_path):
    wl, state, s, oracle = tiny_run("reference", tmp_path)
    assert wl.check(state, s, oracle)[0] == []
    for bad in (s["final"] * 1.01, s["final"] * math.nan):
        assert wl.check(state, dict(s, final=bad), oracle)[0]


def test_corrupted_iis_fails(tmp_path):
    wl, state, s, oracle = tiny_run("iis", tmp_path, seed=3)
    assert wl.check(state, s, oracle)[0] == []
    assert wl.check(state, dict(s, vcycles=s["vcycles"] - 1), oracle)[0]
    assert wl.check(state, dict(s, final=s["final"] * 1.001), oracle)[0]


def test_corrupted_table_fails(tmp_path):
    wl, state, s, oracle = tiny_run("table", tmp_path)
    assert wl.check(state, s, oracle)[0] == []
    lines = s["csv"].splitlines()
    row = next(i for i, line in enumerate(lines) if ",log:3,6,20," in line)
    head, N, e, rate = lines[row].rsplit(",", 3)
    lines[row] = ",".join((head, N, f"{1.1 * float(e):.5e}", rate))
    bad = "\n".join(lines) + "\n"
    assert wl.check(state, dict(s, csv=bad), oracle)[0]
    assert wl.check(state, dict(s, code=3), oracle)[0]


def test_compare_table_finds_changed_cells():
    expected = (HERE / "expected" / "table_seed0.csv").read_text(encoding="utf-8")
    assert compare_table(expected, expected, 2e-5, 1e-4) == []
    lines = expected.splitlines()
    changed = [lines[0].replace("seed=0", "seed=1")] + lines[1:]
    assert compare_table("\n".join(changed), expected, 2e-5, 1e-4)
    changed = lines[:5] + [lines[5].replace("e-03,", "e-02,", 1)] + lines[6:]
    assert compare_table("\n".join(changed), expected, 2e-5, 1e-4)


def test_missing_entry_point_is_null_not_zero(tmp_path):
    wl = WORKLOADS["iis"](run.workload_params("iis", 0, tiny=True), tmp_path, "t")
    tr = tracer.Tracer()
    # a stand-in stepping module without vcycle, gen_weights or l2_project
    tracer.instrument(tr, types.SimpleNamespace(), subdiff.multigrid,
                      subdiff.bench, subdiff.cli)
    try:
        state = wl.setup()
        root = tr.open("proc.run")
        wl.call(state)
        tr.close(root)
    finally:
        tr.restore()
    run_s = tr.end[root] - tr.start[root]
    m, warnings, failures = tracer.layer_metrics(tr, root, run_s, run_s,
                                                 wl.required, 1.0)
    assert failures == []
    assert m["multigrid.vcycles"] is None and m["stepping.rhs_self_s"] is None
    assert m["cq.weights_s"] is None and m["fem.projections"] is None
    assert any(".vcycle is gone" in w and "multigrid.vcycles" in w for w in warnings)
    assert m["multigrid.smooth_sweeps"] > 0 and m["multigrid.direct_solves"] == 2
    assert subdiff.stepping.vcycle is subdiff.multigrid.vcycle  # restored


def test_fresh_import_puts_back_the_modules_in_use():
    import worker
    before = sys.modules["subdiff.bench"]
    worker.fresh_import()
    assert sys.modules["subdiff.bench"] is before is subdiff.bench
    assert sys.modules["subdiff.stepping"] is subdiff.stepping


def copy_tree(dst, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(HERE, dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_broken_program_fails_the_run(tmp_path):
    copy_tree(tmp_path)
    stepping = tmp_path / "src" / "subdiff" / "stepping.py"
    text = stepping.read_text(encoding="utf-8")
    assert "for m in range(m_n):" in text
    stepping.write_text(text.replace("for m in range(m_n):",
                                     "for m in range(max(1, m_n - 1)):"),
                        encoding="utf-8")
    proc = bench("iis", 0, root=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_without_package_exits_nonzero_and_prints_no_result(tmp_path):
    copy_tree(tmp_path, with_src=False)
    proc = bench("table", 0, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
