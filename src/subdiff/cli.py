"""Command-line benchmark harness.

Subcommands: example1, example2, contraction, weights-dump.  Options may also
come from a ``--config`` file of key=value lines (one per line, ``#`` starts
a comment).  List values: ``alpha`` and ``N`` entries are separated by commas
or spaces; ``schedule`` entries by spaces (specs like log:3,6 contain
commas).  Explicit flags win over the file; an unknown key is an error.

Exit codes: 0 success, 2 configuration error, 3 numeric/divergence failure.
"""

import argparse
import sys

from .bench import (ExperimentConfig, emit_table, run_contraction_sweep,
                    run_example1, run_example2, weight_table_csv)
from .errors import ConfigurationError, NumericsError

# ExperimentConfig field -> (config-file key, value type).  Each flag stores
# into the field of its name; fields given neither way keep their defaults.
_FIELDS = {
    "alphas": ("alpha", float), "Ns": ("N", int), "K": ("K", int),
    "c_A": ("cA", float), "smoother": ("smoother", str),
    "omega": ("omega", float), "nu1": ("nu1", int), "nu2": ("nu2", int),
    "schedules": ("schedule", str), "startup_exact": ("startup-exact", int),
    "ref_N": ("ref-N", int), "ref_file": ("ref-file", str), "K0": ("K0", int),
    "seed": ("seed", int),
}
_LIST_FIELDS = {"alphas", "Ns", "schedules"}
_FILE_KEYS = {key for key, _ in _FIELDS.values()} | {"format", "out", "paper-scale"}
PAPER_SCALE_K = 128


def _add_common(p):
    d = ExperimentConfig()
    p.add_argument("--alpha", action="append", type=float, dest="alphas",
                   help=f"fractional order; repeatable (default {' '.join(map(str, d.alphas))})")
    p.add_argument("--N", action="append", type=int, dest="Ns",
                   help=f"time step count; repeatable (default {' '.join(map(str, d.Ns))})")
    p.add_argument("--K", type=int, help=f"subdivisions per side (default {d.K})")
    p.add_argument("--cA", type=float, dest="c_A",
                   help=f"diffusivity c in A = -c*Laplacian (default {d.c_A:g})")
    p.add_argument("--smoother", choices=("jacobi", "gs"),
                   help=f"V-cycle smoother (default {d.smoother})")
    p.add_argument("--omega", type=float, help="Jacobi damping (default 2/3)")
    p.add_argument("--nu1", type=int, help=f"pre-smoothing sweeps (default {d.nu1})")
    p.add_argument("--nu2", type=int, help=f"post-smoothing sweeps (default {d.nu2})")
    p.add_argument("--schedule", action="append", dest="schedules",
                   help="row schedule: exact | fixed:m | log:a,b | "
                        "theory-smooth:delta | theory-nonsmooth:delta; repeatable")
    p.add_argument("--startup-exact", type=int, dest="startup_exact",
                   help=f"steps solved exactly before iterating (default {d.startup_exact})")
    p.add_argument("--ref-N", type=int, dest="ref_N",
                   help=f"steps of the fine reference run (default {d.ref_N})")
    p.add_argument("--ref-file", dest="ref_file",
                   help=".npy file holding the final-time reference vector")
    p.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                   help=f"use K={PAPER_SCALE_K} (desk-scale default is K={d.K})")
    p.add_argument("--K0", type=int, help=f"coarsest hierarchy level (default {d.K0})")
    p.add_argument("--seed", type=int,
                   help=f"random seed for contraction probes (default {d.seed})")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "md"), dest="fmt",
                   help="output format (default csv)")
    p.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subdiff-bench",
        description="Convergence and contraction benchmarks for the "
                    "subdiffusion solver.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (("example1", "smooth-solution convergence table"),
                      ("example2", "nonsmooth-data convergence table"),
                      ("contraction", "multigrid contraction sweep")):
        _add_common(sub.add_parser(name, help=doc))
    wd = sub.add_parser("weights-dump", help="dump CQ weights with their bound")
    wd.add_argument("--gamma", type=float, required=True)
    wd.add_argument("--n-max", type=int, dest="n_max", required=True)
    wd.add_argument("--out", help="output path (default stdout)")
    return p


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _given(args: argparse.Namespace, file_vals: dict) -> dict:
    """ExperimentConfig fields given by flags or, failing that, the file."""
    unknown = sorted(set(file_vals) - _FILE_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(unknown)}")
    given = {}
    try:
        for field, (key, cast) in _FIELDS.items():
            if key not in file_vals:
                continue
            raw = file_vals[key]
            if field in _LIST_FIELDS:
                # schedules split on whitespace only: 'log:3,6' contains a comma
                if field != "schedules":
                    raw = raw.replace(",", " ")
                given[field] = tuple(cast(v) for v in raw.split())
            else:
                given[field] = cast(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc
    for field in _FIELDS:
        val = getattr(args, field)
        if val is not None:
            given[field] = tuple(val) if field in _LIST_FIELDS else val
    if args.paper_scale or file_vals.get("paper-scale", "").lower() in ("1", "true", "yes"):
        given["K"] = PAPER_SCALE_K
    return given


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _print_timings(table) -> None:
    timings = getattr(table, "timings", None)
    if not timings:
        return
    total = sum(timings.values())
    print(f"# wall time: {total:.2f}s over {len(timings)} cells; slowest:",
          file=sys.stderr)
    worst = sorted(timings.items(), key=lambda kv: -kv[1])[:5]
    for (alpha, label, N), seconds in worst:
        print(f"#   alpha={alpha:g} {label} N={N}: {seconds:.2f}s", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "weights-dump":
            _write(weight_table_csv(args.gamma, args.n_max), args.out)
            return 0
        file_vals = _read_config_file(args.config) if args.config else {}
        cfg = ExperimentConfig(**_given(args, file_vals))
        runner = {"example1": run_example1, "example2": run_example2,
                  "contraction": run_contraction_sweep}[args.command]
        table = runner(cfg)
        _write(emit_table(table, args.fmt or file_vals.get("format", "csv")),
               args.out or file_vals.get("out"))
        _print_timings(table)
        return 0
    except ValueError as exc:  # ConfigurationError and plain domain errors
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
