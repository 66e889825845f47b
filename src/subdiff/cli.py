"""Command-line benchmark harness.

Subcommands: example1, example2, contraction, weights-dump.  Options may also
come from a ``--config`` file of key=value lines (one per line, ``#`` starts a
comment), read by the same parser as the flags: each key is a flag's name
spelled in full (as are the flags), and each line becomes ``--key=value``.
List values: ``alpha`` and ``N`` entries are separated by commas or spaces;
``schedule`` entries by spaces (specs like log:3,6 contain commas); an empty
list value is an error.  ``paper-scale=yes`` means K=128.  Explicit flags win.

Exit codes: 0 success, 2 configuration error, 3 numeric/divergence failure.
"""

import argparse
import os
import sys

from .bench import (FORMATS, ExperimentConfig, run_contraction_sweep, run_example1,
                    run_example2, weight_table_csv)
from .errors import ConfigurationError, NumericsError

# The settings of the table commands, one entry each: (flag and config-file
# key, ExperimentConfig field, value type, help, whether the contraction sweep
# reads it; it offers no other).  A tuple-valued field takes a repeatable flag
# and a list value in the file.  Fields given neither way keep the defaults.
SETTINGS = (
    ("alpha", "alphas", float, "fractional order; repeatable", True),
    ("N", "Ns", int, "time step count; repeatable", True),
    ("K", "K", int, "subdivisions per side", True),
    ("cA", "c_A", float, "diffusivity c in A = -c*Laplacian", True),
    ("smoother", "smoother", str, "V-cycle smoother: gs | jacobi", False),
    ("omega", "omega", float, "Jacobi damping", True),
    ("nu1", "nu1", int, "pre-smoothing sweeps", True),
    ("nu2", "nu2", int, "post-smoothing sweeps", True),
    ("schedule", "schedules", str, "row schedule: exact | fixed:m | log:a,b | "
     "theory-smooth:delta | theory-nonsmooth:delta; repeatable", False),
    ("startup-exact", "startup_exact", int, "steps solved exactly before iterating", False),
    ("ref-N", "ref_N", int, "steps of the fine reference run", False),
    ("ref-file", "ref_file", str, ".npy file holding the final-time reference vector", False),
    ("K0", "K0", int, "coarsest hierarchy level", True),
    ("seed", "seed", int, "seed of the Lanczos start vector of the V-cycle norm", True),
)
_DEFAULTS = ExperimentConfig()
PAPER_SCALE_K = 128
_YES, _NO = ("1", "true", "yes"), ("0", "false", "no")


def _add_common(p, settings):
    for flag, field, cast, text, _ in settings:
        default = getattr(_DEFAULTS, field)
        many = isinstance(default, tuple)
        if default not in (None, ()):
            text += " (default " + " ".join(f"{v:g}" if isinstance(v, float) else str(v)
                                           for v in (default if many else (default,))) + ")"
        p.add_argument(f"--{flag}", dest=field, type=cast, help=text,
                       action="append" if many else "store")
    p.add_argument("--paper-scale", action="store_const", const=PAPER_SCALE_K, dest="K",
                   help=f"shorthand for --K {PAPER_SCALE_K}; the later of the two wins "
                        f"(desk-scale default is K={_DEFAULTS.K})")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, help="output format (default csv)")
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
        settings = [s for s in SETTINGS if s[4] or name != "contraction"]
        _add_common(sub.add_parser(name, help=doc, allow_abbrev=False), settings)
    wd = sub.add_parser("weights-dump", help="dump CQ weights with their bound")
    wd.add_argument("--gamma", type=float, required=True)
    wd.add_argument("--n-max", type=int, dest="n_max", required=True)
    wd.add_argument("--out", help="output path (default stdout)")
    return p


def _read_config_file(path: str) -> list:
    """The file's lines as ``--key=value`` tokens, one per list entry."""
    tokens, scale = [], "no"
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = (part.strip() for part in line.partition("="))
                if not eq or key == "config":
                    raise ConfigurationError(f"{path}:{lineno}: expected key=value with a key "
                                             f"other than config, got {raw.rstrip()!r}")
                if key == "paper-scale":
                    scale = val.lower()
                    continue
                if key in ("alpha", "N"):
                    val = val.replace(",", " ")
                items = val.split() if key in ("alpha", "N", "schedule") else [val]
                tokens += [f"--{key}={item}" for item in items or [""]]
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    has_K = any(token.startswith("--K=") for token in tokens)
    if scale not in _YES + _NO or (scale in _YES and has_K):
        raise ConfigurationError(f"{path}: paper-scale must be one of {'/'.join(_YES + _NO)}"
                                 f" and cannot join a K key, got {scale!r}")
    return tokens + ["--paper-scale"] * (scale in _YES)


def _check_out(out: str | None) -> None:
    if out == "":
        raise ConfigurationError("output path is empty")
    if out is not None and os.path.isdir(out):
        raise ConfigurationError(f"output path {out} is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigurationError(f"output directory of {out} does not exist")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out}: {exc}") from exc


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
    try:
        args = parser.parse_args(argv)
        if args.command == "weights-dump":
            _check_out(args.out)
            _write(weight_table_csv(args.gamma, args.n_max), args.out)
            return 0
        if args.config:  # the file's values, then each flag that was given
            given = {key: val for key, val in vars(args).items() if val is not None}
            args = parser.parse_args([args.command, *_read_config_file(args.config)])
            vars(args).update(given)
        cfg = ExperimentConfig(**{field: tuple(val) if isinstance(val, list) else val
                                  for _, field, *_ in SETTINGS
                                  if (val := getattr(args, field, None)) is not None})
        _check_out(args.out)
        runner = {"example1": run_example1, "example2": run_example2,
                  "contraction": run_contraction_sweep}[args.command]
        table = runner(cfg)
        _write(table.to_markdown() if args.fmt == "md" else table.to_csv(), args.out)
        _print_timings(table)
        return 0
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
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
