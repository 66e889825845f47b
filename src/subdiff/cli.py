"""Command-line benchmark harness.

Subcommands: example1, example2, contraction, weights-dump.  The table
commands' options are built from the fields of ``bench.ExperimentConfig``,
where each setting is declared once.  An argument ``@FILE`` is replaced by
the flags in FILE, split at whitespace (``#`` starts a comment), and read in
order with the rest, by the same parser.  Exit codes: 0 success,
2 bad settings, 3 numeric failure.
"""

import argparse
import os
import sys

from .bench import (FORMATS, ExperimentConfig, run_contraction_sweep, run_example1,
                    run_example2, weight_table_csv)
from .errors import ConfigurationError, NumericsError

__all__ = ["build_parser", "main", "console_entry"]

PAPER_SCALE_K = 128


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


def _file_args(line: str) -> list[str]:
    """One line of an @FILE; a nested file is refused, as argparse would recurse."""
    args = line.split("#", 1)[0].split()
    if any(arg.startswith("@") for arg in args):
        raise ConfigurationError(f"an argument file names no other file: {line.strip()!r}")
    return args


def build_parser() -> argparse.ArgumentParser:
    # a bad value raises ArgumentError, which main reports
    strict = dict(allow_abbrev=False, exit_on_error=False)
    p = argparse.ArgumentParser(
        prog="subdiff-bench", fromfile_prefix_chars="@",
        description="Convergence and contraction benchmarks for the "
                    "subdiffusion solver.",
        epilog="@FILE reads more arguments from FILE (# starts a comment).", **strict)
    p.convert_arg_line_to_args = _file_args
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
    if not (timings := getattr(table, "timings", None)):
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
