"""Benchmark harness: convergence tables, contraction sweeps, table emission.

Two stock problems on (-1,1)^2 with A = -c_A Lap and T = 1:

* example 1 (smooth): v = 0, source t^2 (1-x^2)(1-y^2), started from zero;
  fixed per-step iteration counts suffice.
* example 2 (nonsmooth): zero source, piecewise-constant initial data
  indicator(x<0) + indicator(y<0) projected onto the mesh; schedules with
  extra early-time iterations are needed.

Errors are relative L2 distances at the final time against a reference
trajectory: a backward Euler run with a much finer step (ref_N at least 16x
the largest benchmarked N), or a vector loaded from a file.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cq import TimeGrid, gen_weights
from .errors import ConfigurationError
from .fem import assemble, build_mesh
from .multigrid import (ContractionParams, DampedJacobi, GaussSeidelForward,
                        build_hierarchy, check_cycle, estimate_contraction,
                        level_sizes)
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
    "emit_table",
    "weight_table_csv",
]

T = 1.0  # final time of the stock problems and the contraction sweep
DEFAULT_ROWS_EXAMPLE1 = ("fixed:1", "fixed:2", "fixed:3", "exact")
DEFAULT_ROWS_EXAMPLE2 = ("log:3,0", "log:3,3", "log:3,6", "exact")
FORMATS = ("csv", "md")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one benchmark command; the defaults here are the CLI's."""

    alphas: tuple = (0.2, 0.5, 0.8)
    Ns: tuple = (10, 20, 40, 80, 160, 320)
    K: int = 64
    c_A: float = 5.0
    smoother: str = "gs"
    omega: float = 2.0 / 3.0
    nu1: int = 1
    nu2: int = 1
    schedules: tuple = ()
    startup_exact: int = 2
    ref_N: int = 5120
    ref_file: str | None = None
    K0: int = 4
    seed: int = 0

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
        if self.smoother not in ("gs", "jacobi"):
            raise ConfigurationError(f"smoother must be 'gs' or 'jacobi', got {self.smoother}")
        DampedJacobi(omega=self.omega)  # checks omega, whichever smoother runs
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed}")
        check_cycle(self.nu1, self.nu2, self.K0)
        level_sizes(self.K, self.K0)
        if self.ref_file is None and self.ref_N < 16 * max(self.Ns):
            raise ConfigurationError(
                f"ref_N={self.ref_N} must be at least 16x the largest N={max(self.Ns)}")
        if self.ref_file is not None and len(self.alphas) != 1:
            raise ConfigurationError("an external reference file fixes a single alpha")
        # Build each row once, theory rows with a stand-in pair, so that a bad
        # row or startup count fails here and not after a reference run.  The
        # stock rows are valid; "exact" still checks the startup count.
        stand_in = ContractionParams(c0=1.0, kappa=0.5)
        for text in self.schedules or ("exact",):
            parse_schedule(text, self.startup_exact, stand_in)
        rows = [text.strip() for text in self.schedules]
        if len(set(rows)) != len(rows):
            raise ConfigurationError(f"schedule rows must be distinct, got {self.schedules}")

    def meta_line(self, command: str) -> str:
        return (f"# subdiff-bench {command} seed={self.seed} K={self.K} "
                f"cA={self.c_A:.17g} T={T:.17g} smoother={self.smoother} "
                f"omega={self.omega:.17g} nu1={self.nu1} nu2={self.nu2} "
                f"startup={self.startup_exact} refN={self.ref_N} K0={self.K0}")


def parse_schedule(text: str, startup: int,
                   contraction: ContractionParams | None = None) -> Schedule:
    """Build the schedule a row spec names, solving steps 1..startup exactly.

    Accepted forms: ``exact``, ``fixed:m``, ``log:a,b``,
    ``theory-smooth:delta``, ``theory-nonsmooth:delta``; the theory rows need
    the measured ``contraction`` pair.
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
            return cls(delta=float(arg), params=contraction, exact_startup_steps=startup)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad schedule {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown schedule spec {text!r}")


def example_problem(example: int, sys, alpha: float, N: int, T: float = 1.0) -> ProblemSpec:
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
    meta: str = ""
    cells: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def put(self, alpha: float, label: str, N: int, err: float, seconds: float = 0.0):
        self.cells.setdefault((alpha, label), {})[N] = float(err)
        self.timings[(alpha, label, N)] = seconds

    def sorted_keys(self):
        return sorted(self.cells.keys())

    def emitted_error(self, key, N) -> float:
        return float(f"{self.cells[key][N]:.5e}")

    def rate(self, key, N) -> float | None:
        """log2 of the error ratio against the previous N, from emitted values."""
        i = self.Ns.index(N)
        if i == 0 or self.Ns[i - 1] not in self.cells[key]:
            return None
        prev = self.emitted_error(key, self.Ns[i - 1])
        cur = self.emitted_error(key, N)
        if prev <= 0.0 or cur <= 0.0:
            return None
        return math.log2(prev / cur)

    def to_csv(self) -> str:
        lines = [self.meta, "alpha,row_label,N,eN,rate"] if self.meta else [
            "alpha,row_label,N,eN,rate"]
        for key in self.sorted_keys():
            alpha, label = key
            for N in self.Ns:
                if N not in self.cells[key]:
                    continue
                rate = self.rate(key, N)
                rate_s = "" if rate is None else f"{rate:.10e}"
                lines.append(
                    f"{alpha:.5e},{label},{N},{self.cells[key][N]:.5e},{rate_s}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        out = []
        if self.meta:
            out.append(self.meta.lstrip("# "))
            out.append("")
        alphas = sorted({a for a, _ in self.cells})
        for alpha in alphas:
            out.append(f"### alpha = {alpha:g}")
            out.append("")
            header = "| row | " + " | ".join(f"N={N}" for N in self.Ns) + " |"
            out.append(header)
            out.append("|" + "---|" * (len(self.Ns) + 1))
            for key in self.sorted_keys():
                if key[0] != alpha:
                    continue
                label = key[1]
                errs, rates = [], []
                for N in self.Ns:
                    if N in self.cells[key]:
                        errs.append(f"{self.emitted_error(key, N):.2e}")
                        r = self.rate(key, N)
                        rates.append("" if r is None else f"{r:.2f}")
                    else:
                        errs.append("")
                        rates.append("")
                out.append(f"| {label} | " + " | ".join(errs) + " |")
                out.append("| rate | " + " | ".join(rates) + " |")
            out.append("")
        return "\n".join(out) + "\n"


@dataclass
class ContractionReport:
    """Measured (kappa, c0) per (alpha, N, smoother) cell at fixed K."""

    meta: str = ""
    rows: list = field(default_factory=list)  # (alpha, tau, K, smoother, nu1, nu2, kappa, c0)

    def to_csv(self) -> str:
        lines = [self.meta] if self.meta else []
        lines.append("alpha,tau,K,smoother,nu1,nu2,kappa,c0")
        for alpha, tau, K, sm, nu1, nu2, kappa, c0 in sorted(self.rows):
            lines.append(f"{alpha:.5e},{tau:.5e},{K},{sm},{nu1},{nu2},"
                         f"{kappa:.5e},{c0:.5e}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        out = []
        if self.meta:
            out.append(self.meta.lstrip("# "))
            out.append("")
        out.append("| alpha | tau | K | smoother | nu1 | nu2 | kappa | c0 |")
        out.append("|---|---|---|---|---|---|---|---|")
        for alpha, tau, K, sm, nu1, nu2, kappa, c0 in sorted(self.rows):
            out.append(f"| {alpha:g} | {tau:.4e} | {K} | {sm} | {nu1} | {nu2} "
                       f"| {kappa:.3e} | {c0:.3f} |")
        return "\n".join(out) + "\n"


def _reference_final(cfg: ExperimentConfig, sys, example: int, alpha: float) -> np.ndarray:
    if cfg.ref_file is not None:
        try:
            vec = np.load(cfg.ref_file)
        except OSError as exc:
            raise ConfigurationError(f"cannot read reference file: {exc}") from exc
        if vec.shape != (sys.dim,) or not np.isfinite(vec).all():
            raise ConfigurationError(
                f"reference file needs {sys.dim} finite values, has shape {vec.shape}")
        return vec
    spec = example_problem(example, sys, alpha, cfg.ref_N, T)
    return run_exact(spec).final


def _run_example(cfg: ExperimentConfig, example: int, default_rows) -> ErrorTable:
    rows = [label.strip() for label in cfg.schedules or default_rows]
    sys = assemble(build_mesh(cfg.K), cfg.c_A)
    smoother = GaussSeidelForward() if cfg.smoother == "gs" else DampedJacobi(omega=cfg.omega)
    table = ErrorTable(Ns=tuple(cfg.Ns), meta=cfg.meta_line(f"example{example}"))
    for alpha in cfg.alphas:
        ref = _reference_final(cfg, sys, example, alpha)
        for N in cfg.Ns:
            spec = example_problem(example, sys, alpha, N, T)
            hierarchy = contraction = None
            if any(label != "exact" for label in rows):
                hierarchy = build_hierarchy(sys, spec.grid.tau, alpha, smoother,
                                            cfg.nu1, cfg.nu2, cfg.K0)
            if any(label.startswith("theory") for label in rows):
                contraction = estimate_contraction(hierarchy, seed=cfg.seed)
            for label in rows:
                schedule = parse_schedule(label, cfg.startup_exact, contraction)
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
    """Measure (kappa, c0) for both smoothers over the (alpha, N) grid.

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
                params = estimate_contraction(h, seed=cfg.seed)
                report.rows.append((alpha, tau, cfg.K, smoother.name, cfg.nu1,
                                    cfg.nu2, params.kappa, params.c0))
    return report


def emit_table(table, fmt: str = "csv") -> str:
    """Render a table as CSV or Markdown text."""
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown format {fmt!r}")
    return table.to_csv() if fmt == "csv" else table.to_markdown()


def weight_table_csv(gamma: float, n_max: int) -> str:
    """CQ weights with their decay envelope, as CSV text (j, b_j, bound)."""
    table = gen_weights(gamma, n_max)
    bound = table.bound()
    lines = [f"# subdiff-bench weights-dump gamma={gamma:.17g} n_max={n_max}",
             "j,b_j,bound"]
    for j, (w, b) in enumerate(zip(table.weights, bound)):
        lines.append(f"{j},{w:.17g},{b:.17g}")
    return "\n".join(lines) + "\n"
