"""Command-line benchmark harness.

Subcommands: example1, example2, contraction, weights-dump.  The table
commands' options are built from the fields of ``bench.ExperimentConfig``,
where each setting is declared once.  They may also come from a ``--config``
file of key=value lines (``#`` starts a comment), read by the same parser as
the flags: each key is a flag's name spelled in full, and each line becomes
``--key=value``.  A tuple field's key takes a list (numbers part at commas or
spaces, schedules at spaces); an empty list is an error.  A bad key or value
is reported with its file and line.  ``paper-scale=yes`` means K=128.  Explicit
flags win.  Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

import argparse
import os
import sys

from .bench import (FORMATS, ExperimentConfig, run_contraction_sweep, run_example1,
                    run_example2, weight_table_csv)
from .errors import ConfigurationError, NumericsError

PAPER_SCALE_K = 128
_YES, _NO = ("1", "true", "yes"), ("0", "false", "no")


def _add_common(p, command):
    for f, cast, many in ExperimentConfig.settings(command):
        text, shown = f.metadata["help"], f.default if many else (f.default,)
        if f.default not in (None, ()):
            text += " (default " + " ".join(f"{v:g}" if isinstance(v, float) else str(v)
                                           for v in shown) + ")"
        p.add_argument(f"--{f.metadata['flag']}", dest=f.name, type=cast, help=text,
                       action="append" if many else "store")
    p.add_argument("--paper-scale", action="store_const", const=PAPER_SCALE_K, dest="K",
                   help=f"shorthand for --K {PAPER_SCALE_K}; the later of the two wins "
                        f"(desk-scale default is K={ExperimentConfig.K})")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, help="output format (default csv)")
    p.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    # a bad value raises ArgumentError, which main and the config reader report
    strict = dict(allow_abbrev=False, exit_on_error=False)
    p = argparse.ArgumentParser(
        prog="subdiff-bench",
        description="Convergence and contraction benchmarks for the "
                    "subdiffusion solver.", **strict)
    sub = p.add_subparsers(dest="command")
    for name, doc in (("example1", "smooth-solution convergence table"),
                      ("example2", "nonsmooth-data convergence table"),
                      ("contraction", "multigrid contraction sweep")):
        _add_common(sub.add_parser(name, help=doc, **strict), name)
    wd = sub.add_parser("weights-dump", help="dump CQ weights with their bound", **strict)
    wd.add_argument("--gamma", type=float, required=True)
    wd.add_argument("--n-max", type=int, dest="n_max", required=True)
    wd.add_argument("--out", help="output path (default stdout)")
    return p


def _parse_config_file(parser, command: str, path: str) -> argparse.Namespace:
    """Parse the file's lines as ``--key=value`` tokens, one per list entry: a
    list parts at spaces, and a numeric one at commas too (log:3,6 holds one)."""
    lists = {f.metadata["flag"]: " " if cast is str else ","
             for f, cast, many in ExperimentConfig.settings(command) if many}
    tokens, line_of, scale = [], {}, "no"
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
                line_of.setdefault(key, lineno)
                if key == "paper-scale":
                    scale = val.lower()
                    continue
                items = val.replace(lists[key], " ").split() if key in lists else [val]
                tokens += [f"--{key}={item}" for item in items or [""]]
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if scale not in _YES + _NO or (scale in _YES and "K" in line_of):
        raise ConfigurationError(f"{path}: paper-scale must be one of {'/'.join(_YES + _NO)}"
                                 f" and cannot join a K key, got {scale!r}")
    tokens += ["--paper-scale"] * (scale in _YES)
    try:
        args, unknown = parser.parse_known_args([command, *tokens])
    except argparse.ArgumentError as exc:  # a bad value: name its file and line
        raise ConfigurationError(
            f"{path}:{line_of[exc.argument_name.rpartition('--')[2]]}: {exc}") from exc
    if unknown:  # argparse is the judge of which keys exist; name the file and line
        key = unknown[0][2:].partition("=")[0]
        raise ConfigurationError(f"{path}:{line_of[key]}: unknown key {key!r} for {command}")
    return args


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
        if args.command is None:  # not required=True, so an unknown flag is named first
            parser.error("the following arguments are required: command")
        if args.command == "weights-dump":
            _check_out(args.out)
            _write(weight_table_csv(args.gamma, args.n_max), args.out)
            return 0
        if args.config:  # the file's values, then each flag that was given
            given = {key: val for key, val in vars(args).items() if val is not None}
            args = _parse_config_file(parser, args.command, args.config)
            vars(args).update(given)
        cfg = ExperimentConfig(**{f.name: tuple(val) if many else val
                                  for f, _, many in ExperimentConfig.settings(args.command)
                                  if (val := getattr(args, f.name)) is not None})
        _check_out(args.out)
        runner = {"example1": run_example1, "example2": run_example2,
                  "contraction": run_contraction_sweep}[args.command]
        table = runner(cfg)
        _write(table.to_markdown() if args.fmt == "md" else table.to_csv(), args.out)
        _print_timings(table)
        return 0
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    except (ValueError, argparse.ArgumentError) as exc:  # settings, domains, flag values
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
