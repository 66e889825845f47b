"""Benchmark tables, CSV/Markdown emission, and the command-line interface."""

import argparse
import dataclasses
import math
import pathlib
import subprocess
import sys as _sys
import typing

import numpy as np
import pytest

import subdiff.bench as bench
import subdiff.cli as cli
import subdiff.multigrid as multigrid
from subdiff.bench import (ContractionReport, ErrorTable, ExperimentConfig,
                           example_problem, parse_schedule,
                           run_contraction_sweep, run_example1, run_example2,
                           weight_table_csv)
from subdiff.errors import ConfigurationError, NumericsError
from subdiff.fem import assemble, build_mesh
from subdiff.stepping import (ExactSchedule, LogSchedule, TheoryNonsmoothData,
                              TheorySmoothData, run_exact)


TINY = dict(alphas=(0.5,), Ns=(5, 10), K=8, ref_N=160)


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(Ns=(20, 10))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(K=12, K0=4)  # 12 -> 6 -> 3, never reaches 4
    with pytest.raises(ConfigurationError):
        ExperimentConfig(alphas=(1.2,))
    for bad in (dict(Ns=(0, 10)), dict(Ns=(-5, 10)), dict(alphas=(0.5, 0.5))):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**bad)
    for bad in (dict(Ns=(True, 2)), dict(nu1=True)):
        with pytest.raises(ConfigurationError, match="integer"):  # a bool is not one
            ExperimentConfig(**bad)
    with pytest.raises(ConfigurationError, match="damping"):
        ExperimentConfig(omega=1.5)  # checked with the default smoother too
    assert ExperimentConfig(K=4, K0=4).K == 4  # the table runner decides what one level runs


def test_one_level_runs_when_every_step_is_exact(monkeypatch):
    """K = K0 is refused, before any run, only if some step of some row (the
    stock rows too) needs a V-cycle; otherwise the table runs with no
    hierarchy at all.  The sweep always needs one."""
    def never(*args):
        raise AssertionError("a run started, or a hierarchy was built for exact steps only")

    with monkeypatch.context() as m:
        for name in ("run_exact", "run_iis", "build_hierarchy"):
            m.setattr(bench, name, never)
        for rows in (("fixed:1",), ()):
            with pytest.raises(ConfigurationError, match="K0"):
                run_example1(ExperimentConfig(K=4, K0=4, alphas=(0.5,), Ns=(5, 10), ref_N=160,
                                              startup_exact=9, schedules=rows))
    monkeypatch.setattr(multigrid.spla, "eigs", never)
    assert cli.main(["contraction", "--K", "4", "--N", "10"]) == 2  # from build_hierarchy
    monkeypatch.setattr(bench, "build_hierarchy", never)
    cells = {}
    for rows in (("fixed:1", "theory-smooth:0.1"), ()):
        cells |= bench.run_example1(ExperimentConfig(
            K=4, K0=4, alphas=(0.5,), Ns=(5, 10), ref_N=160, startup_exact=10, schedules=rows)).cells
    assert len(cells) == 5 and all(errs == cells[(0.5, "exact")] for errs in cells.values())


def test_reference_rules_checked_before_any_run(monkeypatch):
    """The settings only the example tables read (sweep=False) are checked by
    the table runner, before any run: ref_N >= 16 max N, a reference file's
    single alpha, the smoother, the rows, the startup count and the one-level
    rule.  A bad one still constructs an ExperimentConfig."""
    def never(*args):
        raise AssertionError("a run started before the table-only settings were checked")

    for name in ("run_exact", "run_iis", "build_hierarchy", "assemble"):
        monkeypatch.setattr(bench, name, never)
    for bad in (dict(Ns=(10, 20), ref_N=100),
                dict(alphas=(0.2, 0.5), ref_file="ref.npy"),
                dict(smoother="sor"),
                dict(schedules=("bogus",)), dict(schedules=("",)),
                dict(schedules=("fixed:1", " fixed:1")),
                dict(startup_exact=0),
                dict(K=4, K0=4)):  # the stock rows need a V-cycle
        cfg = ExperimentConfig(**bad)
        with pytest.raises(ConfigurationError):
            run_example1(cfg)


def test_cli_contraction_needs_no_reference(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["contraction", "--K", "8", "--N", "640", "--alpha", "0.5",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4  # meta, header, two smoothers


@pytest.mark.parametrize("flag, value", [
    ("smoother", "jacobi"), ("schedule", "log:3,6"), ("startup-exact", "5"),
    ("ref-N", "1"), ("ref-file", "/nonexistent.npy")])
def test_cli_contraction_refuses_settings_it_never_reads(tmp_path, monkeypatch, flag, value):
    """The sweep runs both smoothers, no rows and no reference: each such
    setting exits 2 before any run, as a flag or in an argument file.  The
    example tables still take it."""
    def never(cfg):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "run_contraction_sweep", never)
    base = ["contraction", "--K", "8", "--N", "10"]
    assert cli.main(base + [f"--{flag}", value]) == 2
    path = tmp_path / "bench.args"
    path.write_text(f"--{flag} {value}\n")
    assert cli.main(base + [f"@{path}"]) == 2
    cli.build_parser().parse_args(["example1", f"--{flag}", value])  # no SystemExit


def test_each_setting_is_declared_once_on_the_config():
    """Each table command's parser offers exactly the ExperimentConfig fields
    declared for it, with the declared flag and value type (a tuple field
    repeatable), and the sweep's metadata line names none it refuses."""
    refused = {f.name for f in dataclasses.fields(ExperimentConfig) if not f.metadata["sweep"]}
    assert refused == {"smoother", "schedules", "startup_exact", "ref_N", "ref_file"}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("example1", "example2", "contraction"):
        offered = {a.dest: a for a in sub.choices[command]._actions if a.type is not None}
        declared = [f for f in dataclasses.fields(ExperimentConfig)
                    if command != "contraction" or f.name not in refused]
        assert set(offered) == {f.name for f in declared}
        for f in declared:
            action, many = offered[f.name], typing.get_origin(f.type) is tuple
            assert action.option_strings == [f"--{f.metadata['flag']}"]
            assert f.type in (action.type, action.type | None, tuple[action.type, ...])
            assert isinstance(action, argparse._AppendAction if many else argparse._StoreAction)
    cfg = ExperimentConfig(smoother="jacobi", startup_exact=7, ref_N=7777)
    keys = {item.partition("=")[0] for item in cfg.meta_line("contraction").split()[3:]}
    assert keys == {"seed", "K", "cA", "T", "omega", "nu1", "nu2", "K0"}
    assert cfg.meta_line("example1").endswith(" startup=7 refN=7777 K0=4")
    assert "jacobi" in cfg.meta_line("example1") and "jacobi" not in cfg.meta_line("contraction")


def test_config_defaults_are_the_librarys():
    """ExperimentConfig() takes each default the library declares: Jacobi's
    damping, the schedules' startup count, build_hierarchy's smoother, nu1,
    nu2 and K0, and example_problem's final time."""
    cfg = ExperimentConfig()
    sys = assemble(build_mesh(8), 5.0)
    h = multigrid.build_hierarchy(sys, 0.1, 0.5)
    assert cfg.omega == multigrid.DampedJacobi().omega
    assert cfg.startup_exact == ExactSchedule().exact_startup_steps
    assert (cfg.smoother, cfg.nu1, cfg.nu2) == (h.smoother.name, h.nu1, h.nu2)
    assert h.levels[0].B.shape == ((cfg.K0 - 1) ** 2,) * 2
    assert example_problem(1, sys, 0.5, 10).grid.T == bench.T


def test_parse_schedule_forms():
    assert parse_schedule("exact", 2) == ExactSchedule(exact_startup_steps=2)
    assert parse_schedule(" fixed:4 ", 3) == LogSchedule(a=4, exact_startup_steps=3)
    assert parse_schedule("log:3,6", 2) == LogSchedule(a=3, b=6)
    assert parse_schedule("theory-smooth:0.1", 2) == TheorySmoothData(delta=0.1)
    assert parse_schedule("theory-nonsmooth:0.2", 1) == TheoryNonsmoothData(
        delta=0.2, exact_startup_steps=1)
    for bad in ("fixed", "fixed:x", "log:1", "nope:3", "exact:1", "fixed:0",
                "log:0,0", "theory-smooth:1.5"):
        with pytest.raises(ConfigurationError):
            parse_schedule(bad, 2)
    with pytest.raises(ConfigurationError):
        parse_schedule("exact", 0)  # the startup count is checked by every row


def test_example_problems():
    sys = assemble(build_mesh(8), 5.0)
    spec1 = example_problem(1, sys, 0.5, 10)
    F1 = spec1.source.load_at(sys, 0.5)
    F2 = spec1.source.load_at(sys, 1.0)
    np.testing.assert_allclose(4.0 * F1, F2, rtol=1e-14)  # t^2 scaling
    spec2 = example_problem(2, sys, 0.5, 10)
    assert spec2.source is None
    v = spec2.initial.vector(sys)
    assert v.shape == (sys.dim,)
    with pytest.raises(ConfigurationError):
        example_problem(3, sys, 0.5, 10)


# ------------------------------------------------------------- tables


def synthetic_table():
    table = ErrorTable(Ns=(10, 20, 40, 80, 160, 320), meta="# synthetic")
    rng = np.random.default_rng(0)
    for alpha in (0.2, 0.5, 0.8):
        for label in ("fixed:1", "fixed:2", "fixed:3", "exact"):
            base = rng.uniform(1e-3, 1e-2)
            for i, N in enumerate(table.Ns):
                table.put(alpha, label, N, base / 2**i, 0.0)
    return table


def test_emit_table_row_count_mirrors_grid():
    text = synthetic_table().to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "# synthetic"
    assert lines[1] == "alpha,row_label,N,eN,rate"
    assert len(lines) - 2 == 72  # 3 alphas x 4 rows x 6 N


def test_emit_table_empty_and_single_cell():
    empty = ErrorTable(Ns=(10,), meta="# empty")
    assert empty.to_csv() == "# empty\nalpha,row_label,N,eN,rate\n"
    one = ErrorTable(Ns=(10, 20), meta="# one")
    one.put(0.5, "exact", 10, 1.5e-3, 0.0)
    lines = one.to_csv().strip().splitlines()
    assert len(lines) == 3  # meta, header, one cell
    assert lines[2].endswith(",")  # no rate for the first N


def test_emitted_rates_recompute_from_emitted_errors():
    text = synthetic_table().to_csv()
    errors = {}
    for line in text.strip().splitlines()[2:]:
        alpha, label, N, eN, rate = line.split(",")
        key = (alpha, label)
        N = int(N)
        errors[(key, N)] = float(eN)
        if rate:
            recomputed = math.log2(errors[(key, N // 2)] / float(eN))
            assert abs(float(rate) - recomputed) <= 1e-9


def test_markdown_layout():
    text = synthetic_table().to_markdown()
    assert text.count("### alpha =") == 3
    assert "| rate |" in text
    assert "N=320" in text


def test_weight_table_csv():
    text = weight_table_csv(0.5, 4)
    lines = text.strip().splitlines()
    assert lines[1] == "j,b_j,bound"
    assert len(lines) == 7
    j, b, bound = lines[3].split(",")
    assert (int(j), float(b)) == (1, -0.5)
    assert float(bound) == pytest.approx(math.exp(1.0) * 2**-1.5, rel=1e-12)


# ------------------------------------------------------------- example runs


@pytest.fixture(scope="module")
def tiny_tables():
    cfg_gs = ExperimentConfig(schedules=("fixed:1", "exact"), smoother="gs", **TINY)
    cfg_jac = ExperimentConfig(schedules=("fixed:1", "exact"), smoother="jacobi", **TINY)
    return run_example1(cfg_gs), run_example1(cfg_jac)


def test_example1_table_contents(tiny_tables):
    table, _ = tiny_tables
    assert set(table.cells) == {(0.5, "fixed:1"), (0.5, "exact")}
    for key in table.cells:
        assert set(table.cells[key]) == {5, 10}
        for err in table.cells[key].values():
            assert err >= 0.0


def test_exact_row_is_smoother_independent(tiny_tables):
    gs, jac = tiny_tables
    for N in (5, 10):
        a = gs.cells[(0.5, "exact")][N]
        b = jac.cells[(0.5, "exact")][N]
        assert abs(a - b) <= 1e-10 * max(a, 1e-30)


def test_rerun_is_byte_identical(tiny_tables):
    cfg = ExperimentConfig(schedules=("fixed:1", "exact"), smoother="gs", **TINY)
    again = run_example1(cfg).to_csv()
    assert again == tiny_tables[0].to_csv()


GOLDEN = pathlib.Path(__file__).parent / "golden"
K16 = ["--K", "16", "--N", "10", "--N", "20"]


@pytest.mark.parametrize("name, argv", [
    ("example1_K16.csv", ["example1", *K16, "--N", "40", "--ref-N", "640"]),
    ("example2_K16.csv", ["example2", *K16, "--N", "40", "--ref-N", "640",
                          "--schedule", "theory-nonsmooth:0.1",
                          "--schedule", "log:3,6", "--schedule", "exact"]),
    ("contraction_K16.csv", ["contraction", *K16]),
    ("example2_K16.md", ["example2", *K16, "--N", "40", "--ref-N", "640",
                         "--schedule", "theory-nonsmooth:0.1",
                         "--schedule", "log:3,6", "--schedule", "exact",
                         "--format", "md"]),
    ("contraction_K16.md", ["contraction", *K16, "--format", "md"]),
])
def test_cli_reproduces_golden_tables(name, argv, tmp_path):
    """The committed tables, byte for byte: any change to a solver's
    arithmetic that moves an emitted digit shows up here."""
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_example2_runs_with_theory_schedule():
    cfg = ExperimentConfig(schedules=("log:1,0", "theory-nonsmooth:0.1"),
                           smoother="gs", **TINY)
    table = run_example2(cfg)
    assert set(table.cells) == {(0.5, "log:1,0"), (0.5, "theory-nonsmooth:0.1")}
    assert table.to_csv() == run_example2(cfg).to_csv()


def test_hierarchy_and_kappa_only_where_a_row_needs_them(monkeypatch):
    """kappa's eigensolve runs once per cell that has theory rows, however
    many there are, and never for the stock rows; no hierarchy is built for
    an N at which every step of every row is exact."""
    eigs, build = multigrid.spla.eigs, bench.build_hierarchy
    calls = {"eigs": 0, "build": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(multigrid.spla, "eigs", counted("eigs", eigs))
    monkeypatch.setattr(bench, "build_hierarchy", counted("build", build))
    run_example2(ExperimentConfig(
        schedules=("theory-smooth:0.1", "theory-nonsmooth:0.1"), **TINY))
    assert calls == {"eigs": 2, "build": 2}  # one alpha, two N
    run_example2(ExperimentConfig(**TINY))
    assert calls == {"eigs": 2, "build": 4}
    run_example2(ExperimentConfig(startup_exact=5, **TINY))  # N=5 is all exact
    assert calls == {"eigs": 2, "build": 5}


def test_contraction_sweep_small():
    cfg = ExperimentConfig(alphas=(0.5,), Ns=(10,), K=8, ref_N=160)
    report = run_contraction_sweep(cfg)
    assert len(report.rows) == 2
    by_smoother = {row[3]: row for row in report.rows}
    assert set(by_smoother) == {"gs", "jacobi"}
    for row in report.rows:
        assert len(row) == 7 and 0.0 < row[6] < 1.0
    assert by_smoother["gs"][6] < by_smoother["jacobi"][6]
    text = report.to_csv()
    assert text.splitlines()[1] == "alpha,tau,K,smoother,nu1,nu2,kappa"
    assert run_contraction_sweep(cfg).to_csv() == text


# ------------------------------------------------------------- CLI


def test_cli_weights_dump(tmp_path):
    out = tmp_path / "w.csv"
    rc = cli.main(["weights-dump", "--gamma", "0.5", "--n-max", "8",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "j,b_j,bound"
    assert len(lines) == 11
    assert cli.main(["weights-dump", "--gamma", "0.5", "--n-max", "8",
                     "--out", str(tmp_path / "missing" / "w.csv")]) == 2


def test_cli_example1_tiny(tmp_path):
    out = tmp_path / "table.csv"
    rc = cli.main(["example1", "--alpha", "0.5", "--N", "5", "--N", "10",
                   "--K", "8", "--ref-N", "160", "--schedule", "exact",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "alpha,row_label,N,eN,rate"
    assert len(lines) == 4


def test_cli_configuration_error_exit_code(capsys):
    assert cli.main(["example1", "--K", "12", "--N", "5", "--ref-N", "80"]) == 2
    assert cli.main(["example1", "--schedule", "bogus:1", "--N", "5",
                     "--K", "8", "--ref-N", "80"]) == 2
    assert cli.main(["example1", "--K", "eight"]) == 2  # malformed flag value
    assert cli.main(["example1", "--help"]) == 0
    capsys.readouterr()
    assert cli.main(["--he"]) == 2  # the top-level flags are spelled in full too
    assert "--he" in capsys.readouterr().err  # named, not hidden behind the missing command
    assert cli.main([]) == 2
    assert cli.main(["example1", "--alph", "0.5"]) == 2
    assert cli.main(["example1", "--seed", "0"]) == 2  # kappa's start vector is fixed


def test_cli_rejects_bad_multigrid_settings_before_any_run(tmp_path, monkeypatch):
    def never(spec):
        raise AssertionError("reference run started before the settings were checked")

    monkeypatch.setattr(bench, "run_exact", never)
    bad_format = tmp_path / "bench.args"
    bad_format.write_text("--format xml\n")
    base = ["example1", "--N", "5", "--ref-N", "80"]
    for bad in (["--K", "32", "--nu1", "0", "--nu2", "0"],
                ["--K", "32", "--nu1", "-1"],
                ["--K", "48", "--K0", "3"],  # 48 = 3 * 2^4, but K0 is odd
                ["--K", "8", "--startup-exact", "0"],
                ["--K", "8", "--schedule", "exact", "--schedule", "fixed:0"],
                ["--K", "8", "--schedule", "theory-smooth:1.5"],
                ["--K", "8", "--alpha", "0.5", "--alpha", "0.5"],
                ["--K", "8", "--schedule", "fixed:1", "--schedule", " fixed:1"],
                ["--K", "8", "--smoother", "sor"],
                ["--K", "8", "--omega", "1.5"],
                ["--K", "8", "--omega", "0"],
                ["--K", "8", "--format", "xml"],
                ["--K", "8", f"@{bad_format}"],
                ["--K", "8", "--out", str(tmp_path / "missing" / "t.csv")],
                ["--K", "4"],  # K = K0 leaves no V-cycle for the default rows
                ["--K", "8", "--cA", "inf"]):
        assert cli.main(base + bad) == 2


def test_cli_rejects_step_count_below_one_before_any_run(monkeypatch):
    def never(spec):
        raise AssertionError("reference run started before the settings were checked")

    monkeypatch.setattr(bench, "run_exact", never)
    for first in ("0", "-5"):
        assert cli.main(["example1", "--K", "8", "--ref-N", "160",
                         "--N", first, "--N", "10"]) == 2


def test_cli_rejects_unwritable_out_path(tmp_path, monkeypatch):
    """--out naming a directory exits 2 before any run; a path that cannot
    be opened when the table is written exits 2 as well, not with a
    traceback."""
    def never(*args):
        raise AssertionError("a run started before --out was checked")

    monkeypatch.setattr(bench, "run_exact", never)
    monkeypatch.setattr(bench, "gen_weights", never)
    for argv in (["weights-dump", "--gamma", "0.5", "--n-max", "4"],
                 ["example1", "--K", "8", "--N", "5", "--ref-N", "80"]):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        not_a_dir = tmp_path / "file.txt"
        not_a_dir.write_text("")
        assert cli.main(argv + ["--out", str(not_a_dir / "t.csv")]) == 2
    out = tmp_path / "t.csv"

    def made_a_directory(cfg):
        out.mkdir()
        return ErrorTable(Ns=cfg.Ns, meta="#")

    monkeypatch.setattr(cli, "run_example1", made_a_directory)
    assert cli.main(["example1", "--K", "8", "--N", "5", "--ref-N", "80",
                     "--out", str(out)]) == 2


def test_cli_rejects_empty_out_or_format_before_any_run(tmp_path, monkeypatch):
    """An empty output path or format exits 2 before any run, whether it is
    given as a flag or in an argument file."""
    def never(cfg):
        raise AssertionError("a run started before the output was checked")

    monkeypatch.setattr(cli, "run_example1", never)
    base = ["example1", "--K", "8", "--N", "5", "--ref-N", "80"]
    assert cli.main(base + ["--out", ""]) == 2
    assert cli.main(base + ["--format", ""]) == 2
    for line in ("--out=\n", "--format=\n"):
        path = tmp_path / "bench.args"
        path.write_text(line)
        assert cli.main(base + [f"@{path}"]) == 2
    assert cli.main(["weights-dump", "--gamma", "0.5", "--n-max", "4", "--out", ""]) == 2


def test_cli_reference_file_gives_the_reference_run_cells(tmp_path):
    """A .npy file holding the final vector of the ref-N run gives the same
    cells as that run; the metadata line keeps the default refN."""
    sys = assemble(build_mesh(8), 5.0)
    np.save(tmp_path / "ref.npy", run_exact(example_problem(1, sys, 0.5, 160)).final)
    argv = ["example1", "--K", "8", "--alpha", "0.5", "--N", "5", "--N", "10"]
    for name, ref in (("run.csv", ["--ref-N", "160"]),
                      ("file.csv", ["--ref-file", str(tmp_path / "ref.npy")])):
        assert cli.main(argv + ref + ["--out", str(tmp_path / name)]) == 0
    run, file = ((tmp_path / name).read_text().splitlines() for name in ("run.csv", "file.csv"))
    assert " refN=160 " in run[0] and " refN=5120 " in file[0]
    assert file[1:] == run[1:] and len(run) == 2 + 4 * 2


def test_cli_bad_reference_file_exit_code(tmp_path):
    argv = ["example1", "--alpha", "0.5", "--K", "8", "--N", "5", "--ref-file"]
    assert cli.main(argv + [str(tmp_path / "missing.npy")]) == 2
    np.save(tmp_path / "nan.npy", np.full(49, np.nan))  # K=8: 49 interior nodes
    assert cli.main(argv + [str(tmp_path / "nan.npy")]) == 2
    np.savez(tmp_path / "ref.npz", ref=np.zeros(49))  # an archive, not an array
    assert cli.main(argv + [str(tmp_path / "ref.npz")]) == 2
    (tmp_path / "empty.npy").write_bytes(b"")
    assert cli.main(argv + [str(tmp_path / "empty.npy")]) == 2
    np.save(tmp_path / "text.npy", np.array(["0"] * 49))
    assert cli.main(argv + [str(tmp_path / "text.npy")]) == 2


def test_cli_config_file_with_flag_override(tmp_path, monkeypatch):
    """@FILE is replaced by the flags in FILE, read in order with the rest by
    the one parser: a line splits at whitespace and # starts a comment, the
    last single-valued flag wins and repeatable flags add up."""
    path, out = tmp_path / "p.args", tmp_path / "t.md"
    path.write_text(f"# a whole call\nexample2 --alpha 0.5\n\n--N 5 --N 10  # two\n"
                    f"--K 8\n--ref-N 160\n--schedule log:1,0\n--schedule exact\n"
                    f"--format md --out {out}\n")
    assert cli.main([f"@{path}"]) == 0
    text = out.read_text()
    assert text.count("### alpha =") == 1 and "| log:1,0 |" in text and "| N=10 |" in text
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return ErrorTable(Ns=cfg.Ns, meta="#")

    monkeypatch.setattr(cli, "run_example1", capture)
    path.write_text("--K 32 --alpha 0.5\n")
    for argv, K in (([f"@{path}", "--K", "16"], 16), (["--K", "16", f"@{path}"], 32)):
        assert cli.main(["example1", *argv]) == 0
        assert seen.pop() == ExperimentConfig(alphas=(0.5,), K=K)
    assert cli.main(["example1", "--alpha", "0.25", f"@{path}", "--N", "5"]) == 0
    assert seen.pop() == ExperimentConfig(alphas=(0.25, 0.5), Ns=(5,), K=32)
    path.write_text("--paper-scale\n")
    assert cli.main(["example1", f"@{path}"]) == 0
    assert seen.pop() == ExperimentConfig(K=128)
    assert seen == []


def test_cli_rejects_unknown_config_key(tmp_path, monkeypatch, capsys):
    """An unknown flag or a bad value in an @FILE is named; these, a missing
    file, a file naming a file and --config all exit 2 before any run."""
    path = tmp_path / "p.args"
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return ErrorTable(Ns=cfg.Ns, meta="#")

    monkeypatch.setattr(cli, "run_example1", capture)
    for line, named in (("--alph 0.5", "--alph"), ("--K eight", "--K"), ("--N=", "--N"),
                        ("--config other.args", "--config")):
        path.write_text(f"--alpha 0.5\n{line}\n")
        assert cli.main(["example1", f"@{path}"]) == 2
        assert named in capsys.readouterr().err
    path.write_text(f"--K 8\n@{path}\n")  # would otherwise read itself without end
    assert cli.main(["example1", f"@{path}"]) == 2
    assert cli.main(["example1", f"@{tmp_path / 'missing.args'}"]) == 2
    assert cli.main(["example1", "--config", str(path)]) == 2
    assert seen == []


def test_cli_numerics_error_exit_code(monkeypatch):
    def explode(cfg):
        raise NumericsError("iteration diverged")

    monkeypatch.setattr(cli, "run_example1", explode)
    assert cli.main(["example1", "--N", "5", "--K", "8", "--ref-N", "80"]) == 3


def test_cli_missing_config_file():
    assert cli.main(["example1", "@/nonexistent/p.args"]) == 2


def test_cli_weights_dump_domain_error():
    assert cli.main(["weights-dump", "--gamma", "2.5", "--n-max", "4"]) == 2
    assert cli.main(["weights-dump", "--gam", "0.5", "--n-max", "2"]) == 2  # flags in full


def test_cli_paper_scale_flag(monkeypatch):
    seen = {}

    def capture(cfg):
        seen["cfg"] = cfg
        return ErrorTable(Ns=cfg.Ns, meta="#")

    monkeypatch.setattr(cli, "run_example1", capture)
    assert cli.main(["example1", "--paper-scale", "--N", "5", "--ref-N", "80"]) == 0
    assert seen["cfg"].K == 128
    # with no flags, every setting is ExperimentConfig's own default
    assert cli.main(["example1"]) == 0
    assert seen["cfg"] == ExperimentConfig()
    assert cli.main(["example1", "--paper-scale"]) == 0
    assert seen["cfg"] == ExperimentConfig(K=128)
    # the later of --K and --paper-scale wins
    assert cli.main(["example1", "--paper-scale", "--K", "16"]) == 0
    assert seen["cfg"].K == 16
    assert cli.main(["example1", "--K", "16", "--paper-scale"]) == 0
    assert seen["cfg"].K == 128


def test_cli_subprocess_entry(tmp_path):
    out = tmp_path / "w.csv"
    proc = subprocess.run(
        [_sys.executable, "-m", "subdiff.cli", "weights-dump", "--gamma",
         "0.3", "--n-max", "4", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
    proc = subprocess.run(
        [_sys.executable, "-m", "subdiff.cli", "example1", "--K", "12",
         "--N", "5", "--ref-N", "80"],
        capture_output=True, text=True)
    assert proc.returncode == 2
