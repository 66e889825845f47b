"""Benchmark harness: convergence tables, contraction sweeps, table emission.

Two stock problems on (-1,1)^2 with A = -c_A Lap and T = 1:

* example 1 (smooth): v = 0, source t^2 (1-x^2)(1-y^2), started from zero;
  fixed per-step iteration counts suffice.
* example 2 (nonsmooth): zero source, piecewise-constant initial data
  indicator(x<0) + indicator(y<0) projected onto the mesh; schedules with
  extra early-time iterations are needed.

Errors are relative L2 distances at the final time against a reference
trajectory: a backward Euler run with a much finer step (ref_N at least 16x
the largest benchmarked N), or a vector loaded from a file.  The table runners
check that rule, the rows, startup count and smoother first; ExperimentConfig the rest.
"""

import inspect
import itertools
import math
import time
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from .cq import TimeGrid, gen_weights
from .errors import ConfigurationError
from .fem import assemble, build_mesh
from .multigrid import (KAPPA_SEED, DampedJacobi, GaussSeidelForward,
                        build_hierarchy, check_cycle, level_sizes)
from .stepping import (ExactSchedule, L2Projected, LogSchedule, ProblemSpec,
                       Schedule, SeparableSource, TheoryNonsmoothData,
                       TheorySmoothData, ZeroInit, error_report, run_exact,
                       run_iis)

__all__ = [
    "ExperimentConfig",
    "ErrorTable",
    "ContractionReport",
    "parse_schedule",
    "example_problem",
    "run_example1",
    "run_example2",
    "run_contraction_sweep",
    "weight_table_csv",
]

T = 1.0  # final time of the stock problems and the contraction sweep
DEFAULT_ROWS_EXAMPLE1 = ("fixed:1", "fixed:2", "fixed:3", "exact")
DEFAULT_ROWS_EXAMPLE2 = ("log:3,0", "log:3,3", "log:3,6", "exact")
FORMATS = ("csv", "md")
_CYCLE = inspect.signature(build_hierarchy).parameters  # the V-cycle's defaults


def _setting(default, flag: str, text: str, sweep: bool = True):
    """A field of ExperimentConfig with its flag, help and whether the sweep reads it."""
    return field(default=default, metadata={"flag": flag, "help": text, "sweep": sweep})


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one benchmark command, each declared once here: the CLI's default
    (the library's where it has one), flag, help, sweep scope and value type (the annotation)."""

    alphas: tuple[float, ...] = _setting((0.2, 0.5, 0.8), "alpha",
                                         "fractional order; repeatable")
    Ns: tuple[int, ...] = _setting((10, 20, 40, 80, 160, 320), "N",
                                   "time step count; repeatable")
    K: int = _setting(64, "K", "subdivisions per side")
    c_A: float = _setting(5.0, "cA", "diffusivity c in A = -c*Laplacian")
    smoother: str = _setting(_CYCLE["smoother"].default.name, "smoother",
                             "V-cycle smoother: gs | jacobi", sweep=False)
    omega: float = _setting(DampedJacobi.omega, "omega", "Jacobi damping")
    nu1: int = _setting(_CYCLE["nu1"].default, "nu1", "pre-smoothing sweeps")
    nu2: int = _setting(_CYCLE["nu2"].default, "nu2", "post-smoothing sweeps")
    schedules: tuple[str, ...] = _setting(
        (), "schedule", "row schedule: exact | fixed:m | log:a,b | theory-smooth:delta | "
        "theory-nonsmooth:delta; repeatable", sweep=False)
    startup_exact: int = _setting(Schedule.exact_startup_steps, "startup-exact",
                                  "steps solved exactly before iterating", sweep=False)
    ref_N: int = _setting(5120, "ref-N", "steps of the fine reference run", sweep=False)
    ref_file: str | None = _setting(
        None, "ref-file", ".npy file holding the final-time reference vector", sweep=False)
    K0: int = _setting(_CYCLE["K0"].default, "K0", "coarsest hierarchy level")

    @classmethod
    def settings(cls, command: str) -> list:
        """(field, value type, whether a tuple) of each setting the command reads:
        all for the example tables, those declared with sweep=True for the sweep."""
        return [(f, (get_args(f.type) or (f.type,))[0], get_origin(f.type) is tuple)
                for f in fields(cls) if command != "contraction" or f.metadata["sweep"]]

    def __post_init__(self):
        if not self.alphas:
            raise ConfigurationError("need at least one alpha")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigurationError(f"alpha must lie in (0, 1), got {a}")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigurationError(f"alphas must be distinct, got {self.alphas}")
        if not self.Ns:
            raise ConfigurationError("need at least one N")
        for N in self.Ns:
            TimeGrid(T, N)
        if any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ConfigurationError(f"N list must be strictly increasing, got {self.Ns}")
        DampedJacobi(omega=self.omega)  # checks omega, whichever smoother runs
        check_cycle(self.nu1, self.nu2, self.K0)
        level_sizes(self.K, self.K0)

    def meta_line(self, command: str) -> str:
        """The table's first line: the command, then key=field for each setting it reads."""
        read = {"T": T, "seed": KAPPA_SEED} | {
            f.name: getattr(self, f.name) for f, _, _ in self.settings(command)}
        items = [(key, read[name]) for key, name in (pair.split("=") for pair in (
            "seed=seed K=K cA=c_A T=T smoother=smoother omega=omega nu1=nu1 nu2=nu2 "
            "startup=startup_exact refN=ref_N K0=K0").split()) if name in read]
        return " ".join([f"# subdiff-bench {command}"] + [
            f"{key}={v:.17g}" if isinstance(v, float) else f"{key}={v}" for key, v in items])


def parse_schedule(text: str, startup: int) -> Schedule:
    """Build the schedule a row spec names, solving steps 1..startup exactly.

    Accepted forms: ``exact``, ``fixed:m``, ``log:a,b``,
    ``theory-smooth:delta``, ``theory-nonsmooth:delta``; the theory rows read
    the V-cycle's contraction from the hierarchy (``MgHierarchy.kappa``).
    """
    text = text.strip()
    kind, _, arg = text.partition(":")
    try:
        if text == "exact":
            return ExactSchedule(exact_startup_steps=startup)
        if kind == "fixed":
            return LogSchedule(a=int(arg), exact_startup_steps=startup)
        if kind == "log":
            a, b = arg.split(",")
            return LogSchedule(a=int(a), b=int(b), exact_startup_steps=startup)
        if kind in ("theory-smooth", "theory-nonsmooth"):
            cls = TheorySmoothData if kind == "theory-smooth" else TheoryNonsmoothData
            return cls(delta=float(arg), exact_startup_steps=startup)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad schedule {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown schedule spec {text!r}")


def example_problem(example: int, sys, alpha: float, N: int, T: float = T) -> ProblemSpec:
    """Problem spec for one of the stock examples on an assembled system."""
    grid = TimeGrid(T=T, N=N)
    if example == 1:
        source = SeparableSource(
            lambda t: t * t,
            lambda x, y: (1.0 - x * x) * (1.0 - y * y))
        return ProblemSpec(alpha=alpha, grid=grid, sys=sys,
                           initial=ZeroInit(), source=source)
    if example == 2:
        v = lambda x, y: (x < 0.0).astype(float) + (y < 0.0).astype(float)
        return ProblemSpec(alpha=alpha, grid=grid, sys=sys,
                           initial=L2Projected(v), source=None)
    raise ConfigurationError(f"unknown example {example}")


@dataclass
class ErrorTable:
    """Final-time errors keyed by (alpha, row label) and N.

    ``cells[(alpha, label)][N]`` holds e^N.  Rates are derived from the
    six-significant-digit emitted errors so the CSV is self-consistent.
    """

    Ns: tuple
    meta: str
    cells: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def put(self, alpha: float, label: str, N: int, err: float, seconds: float):
        self.cells.setdefault((alpha, label), {})[N] = float(err)
        self.timings[(alpha, label, N)] = seconds

    def _rows(self):
        """Yield (alpha, label, cells) per row in sorted order, with one
        (N, emitted error or None, rate or None) triple per N in Ns.  The
        rate is log2 of the previous N's emitted error over this one."""
        for (alpha, label), errs in sorted(self.cells.items()):
            prev, cells = None, []
            for N in self.Ns:
                err = float(f"{errs[N]:.5e}") if N in errs else None
                ok = prev is not None and err is not None and prev > 0.0 and err > 0.0
                cells.append((N, err, math.log2(prev / err) if ok else None))
                prev = err
            yield alpha, label, cells

    def to_csv(self) -> str:
        lines = [self.meta, "alpha,row_label,N,eN,rate"]
        for alpha, label, cells in self._rows():
            for N, err, rate in cells:
                if err is not None:
                    rate_s = "" if rate is None else f"{rate:.10e}"
                    lines.append(f"{alpha:.5e},{label},{N},{err:.5e},{rate_s}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        out = [self.meta.lstrip("# "), ""]
        for alpha, rows in itertools.groupby(self._rows(), key=lambda row: row[0]):
            out += [f"### alpha = {alpha:g}", "",
                    "| row | " + " | ".join(f"N={N}" for N in self.Ns) + " |",
                    "|" + "---|" * (len(self.Ns) + 1)]
            for _, label, cells in rows:
                out.append(f"| {label} | " + " | ".join(
                    "" if err is None else f"{err:.2e}" for _, err, _ in cells) + " |")
                out.append("| rate | " + " | ".join(
                    "" if rate is None else f"{rate:.2f}" for _, _, rate in cells) + " |")
            out.append("")
        return "\n".join(out) + "\n"


@dataclass
class ContractionReport:
    """kappa = |E|_B of the V-cycle per (alpha, N, smoother) cell at fixed K."""

    meta: str
    rows: list = field(default_factory=list)  # (alpha, tau, K, smoother, nu1, nu2, kappa)

    def to_csv(self) -> str:
        lines = [self.meta, "alpha,tau,K,smoother,nu1,nu2,kappa"]
        for alpha, tau, K, sm, nu1, nu2, kappa in sorted(self.rows):
            lines.append(f"{alpha:.5e},{tau:.5e},{K},{sm},{nu1},{nu2},{kappa:.5e}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        out = [self.meta.lstrip("# "), "",
               "| alpha | tau | K | smoother | nu1 | nu2 | kappa |",
               "|---|---|---|---|---|---|---|"]
        for alpha, tau, K, sm, nu1, nu2, kappa in sorted(self.rows):
            out.append(f"| {alpha:g} | {tau:.4e} | {K} | {sm} | {nu1} | {nu2} "
                       f"| {kappa:.3e} |")
        return "\n".join(out) + "\n"


def _reference_final(cfg: ExperimentConfig, sys, example: int, alpha: float) -> np.ndarray:
    if cfg.ref_file is not None:
        try:
            vec = np.load(cfg.ref_file)
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigurationError(f"cannot read reference file: {exc}") from exc
        if not (isinstance(vec, np.ndarray) and vec.shape == (sys.dim,)
                and vec.dtype.kind in "iuf" and np.isfinite(vec).all()):
            raise ConfigurationError(
                f"reference file needs a .npy array of {sys.dim} finite numbers")
        return vec
    spec = example_problem(example, sys, alpha, cfg.ref_N, T)
    return run_exact(spec).final


def _run_example(cfg: ExperimentConfig, example: int, default_rows) -> ErrorTable:
    if cfg.ref_file is None and cfg.ref_N < 16 * max(cfg.Ns):
        raise ConfigurationError(
            f"ref_N={cfg.ref_N} must be at least 16x the largest N={max(cfg.Ns)}")
    if cfg.ref_file is not None and len(cfg.alphas) != 1:
        raise ConfigurationError("an external reference file fixes a single alpha")
    labels = [label.strip() for label in cfg.schedules or default_rows]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"schedule rows must be distinct, got {cfg.schedules}")
    rows = {label: parse_schedule(label, cfg.startup_exact) for label in labels}
    if cfg.K == cfg.K0 and not all(s.exact(max(cfg.Ns)) for s in rows.values()):
        raise ConfigurationError(f"K={cfg.K} equals K0: one level runs exact steps only")
    smoothers = {"gs": GaussSeidelForward(), "jacobi": DampedJacobi(omega=cfg.omega)}
    if cfg.smoother not in smoothers:
        raise ConfigurationError(f"smoother must be 'gs' or 'jacobi', got {cfg.smoother}")
    sys = assemble(build_mesh(cfg.K), cfg.c_A)
    table = ErrorTable(Ns=tuple(cfg.Ns), meta=cfg.meta_line(f"example{example}"))
    for alpha in cfg.alphas:
        ref = _reference_final(cfg, sys, example, alpha)
        for N in cfg.Ns:
            spec = example_problem(example, sys, alpha, N, T)
            hierarchy = None
            if not all(schedule.exact(N) for schedule in rows.values()):
                hierarchy = build_hierarchy(sys, spec.grid.tau, alpha, smoothers[cfg.smoother],
                                            cfg.nu1, cfg.nu2, cfg.K0)
            for label, schedule in rows.items():
                t0 = time.perf_counter()
                traj = run_iis(spec, schedule, hierarchy)
                err = error_report(traj, ref, sys)
                table.put(alpha, label, N, err, time.perf_counter() - t0)
    return table


def run_example1(cfg: ExperimentConfig) -> ErrorTable:
    """Smooth-solution convergence table (fixed iteration counts)."""
    return _run_example(cfg, 1, DEFAULT_ROWS_EXAMPLE1)


def run_example2(cfg: ExperimentConfig) -> ErrorTable:
    """Nonsmooth-data convergence table (early-time-weighted schedules)."""
    return _run_example(cfg, 2, DEFAULT_ROWS_EXAMPLE2)


def run_contraction_sweep(cfg: ExperimentConfig) -> ContractionReport:
    """kappa = |E|_B of the V-cycle for both smoothers over the (alpha, N) grid.

    Raises NumericsError (exit code 3 in the CLI) if any cell fails to
    contract.
    """
    report = ContractionReport(meta=cfg.meta_line("contraction"))
    sys = assemble(build_mesh(cfg.K), cfg.c_A)
    for alpha in cfg.alphas:
        for N in cfg.Ns:
            tau = T / N
            for smoother in (GaussSeidelForward(), DampedJacobi(omega=cfg.omega)):
                h = build_hierarchy(sys, tau, alpha, smoother,
                                    cfg.nu1, cfg.nu2, cfg.K0)
                report.rows.append((alpha, tau, cfg.K, smoother.name, cfg.nu1,
                                    cfg.nu2, h.kappa))
    return report


def weight_table_csv(gamma: float, n_max: int) -> str:
    """CQ weights with their decay envelope, as CSV text (j, b_j, bound)."""
    table = gen_weights(gamma, n_max)
    bound = table.bound()
    lines = [f"# subdiff-bench weights-dump gamma={gamma:.17g} n_max={n_max}",
             "j,b_j,bound"]
    for j, (w, b) in enumerate(zip(table.weights, bound)):
        lines.append(f"{j},{w:.17g},{b:.17g}")
    return "\n".join(lines) + "\n"
