"""Spans recorded from outside the package, and the per-layer metrics they give.

A :class:`Tracer` wraps the public entry points of each module at the place
its callers resolve them (a module global, a class attribute, or an attribute
of an instance the benchmark holds) and records one span per call: name,
start, end and parent.  Spans stay in memory until the run ends.  Step spans
are placed afterwards from ``StepRecord.wall_time`` and cell spans from
``ErrorTable.timings``.  A span's self time is its duration minus the time
its child spans cover.  The private ``_step_rhs`` is not wrapped: a step's
self time (history sum, rhs matvec, extrapolation) is the history cost.
"""

import functools
import math
import time
from collections import defaultdict

clock = time.perf_counter

STEP_CHILDREN = {"stepping.load", "multigrid.direct_solve", "multigrid.vcycle",
                 "multigrid.norm"}

# per-layer metric -> spans it is derived from; a metric is null when one of
# them could not be wrapped or is missing where the workload must produce it
METRIC_SPANS = {
    "stepping.steps": ("stepping.run",),
    "stepping.direct_steps": ("stepping.run",),
    "stepping.inexact_steps": ("stepping.run",),
    "stepping.step_p50_ms": ("stepping.run",),
    "stepping.step_p90_ms": ("stepping.run",),
    "stepping.rhs_self_s": ("stepping.step",),
    "stepping.load_s": ("stepping.load",),
    "stepping.error_s": ("stepping.error",),
    "multigrid.vcycles": ("multigrid.vcycle",),
    "multigrid.vcycle_s": ("multigrid.vcycle",),
    "multigrid.vcycle_p50_ms": ("multigrid.vcycle",),
    "multigrid.vcycle_self_s": ("multigrid.vcycle", "multigrid.smooth",
                                "multigrid.coarse_solve"),
    "multigrid.smooth_sweeps": ("multigrid.smooth",),
    "multigrid.smooth_s": ("multigrid.smooth",),
    "multigrid.coarse_solves": ("multigrid.coarse_solve",),
    "multigrid.coarse_s": ("multigrid.coarse_solve",),
    "multigrid.norm_calls": ("multigrid.norm",),
    "multigrid.norm_s": ("multigrid.norm",),
    "multigrid.direct_solves": ("multigrid.direct_solve",),
    "multigrid.direct_s": ("multigrid.direct_solve",),
    "multigrid.direct_p50_ms": ("multigrid.direct_solve",),
    "multigrid.factorizations": ("multigrid.factorize",),
    "multigrid.factor_s": ("multigrid.factorize",),
    "multigrid.builds": ("multigrid.build",),
    "multigrid.build_s": ("multigrid.build",),
    "fem.assemblies": ("fem.assemble",),
    "fem.assemble_s": ("fem.assemble",),
    "fem.projections": ("fem.project",),
    "fem.project_s": ("fem.project",),
    "cq.weights_s": ("cq.weights",),
    "bench.cells": ("bench.cell",),
    "bench.cell_p50_s": ("bench.cell",),
    "bench.cell_max_s": ("bench.cell",),
}


class _Solves:
    """Stands in for a factorization object whose only use is ``solve``."""

    def __init__(self, solve):
        self.solve = solve


class Tracer:
    def __init__(self):
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.weight = []    # work units of a call: smoothing sweeps
        self.result = {}    # span index -> what ``capture`` kept of its result
        self.missing = {}   # span name -> entry point that could not be wrapped
        self._stack = []
        self._undo = []

    def open(self, name: str, weight: int = 1) -> int:
        i = len(self.name)
        self.name.append(name)
        self.end.append(None)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.weight.append(weight)
        self._stack.append(i)
        self.start.append(clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = clock()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a span placed after the fact."""
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.weight.append(1)
        return len(self.name) - 1

    def wrap(self, name, fn, weight=None, capture=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name, weight(args, kwargs) if weight else 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if capture is not None:
                self.result[i] = capture(out)
            if post is not None:
                post(out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        if isinstance(owner, type):
            present = attr in vars(owner)
        else:
            present = owner is not None and hasattr(owner, attr)
        if not present:
            where = getattr(owner, "__name__", type(owner).__name__)
            self.missing.setdefault(name, f"{where}.{attr}")
            return
        orig = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, orig, **kw))
        self._undo.append((owner, attr, orig))

    def patch_hierarchy(self, h) -> None:
        """Trace the coarse solve and the weighted norm of one hierarchy."""
        lu = getattr(h, "coarse_lu", None)
        if lu is None:
            self.missing.setdefault("multigrid.coarse_solve",
                                    "MgHierarchy.coarse_lu")
        else:
            h.coarse_lu = _Solves(self.wrap("multigrid.coarse_solve", lu.solve))
        self.patch(h, "weighted_norm", "multigrid.norm")

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _sweeps(args, kwargs) -> int:
    # smooth(level, x, rhs, kind, sweeps=1)
    return kwargs.get("sweeps", args[4] if len(args) > 4 else 1)


def _records(traj):
    return traj.records


def _timings(table):
    return list(table.timings.values())


def instrument(tracer: Tracer, stepping, multigrid, bench, cli) -> None:
    """Wrap each layer's public entry points where its callers find them."""
    p = tracer.patch
    p(stepping, "vcycle", "multigrid.vcycle")
    p(multigrid, "smooth", "multigrid.smooth", weight=_sweeps)
    p(stepping, "gen_weights", "cq.weights")
    p(stepping, "l2_project", "fem.project")
    p(bench, "assemble", "fem.assemble")
    p(bench, "build_hierarchy", "multigrid.build", post=tracer.patch_hierarchy)
    p(bench, "run_exact", "stepping.run", capture=_records)
    p(bench, "run_iis", "stepping.run", capture=_records)
    p(bench, "error_report", "stepping.error")
    p(cli, "run_example2", "bench.table", capture=_timings)
    solver = getattr(multigrid, "DirectSolver", None)
    p(solver, "__init__", "multigrid.factorize")
    p(solver, "solve", "multigrid.direct_solve")


def _children(tr: Tracer) -> list:
    kids = [[] for _ in tr.name]
    for i, par in enumerate(tr.parent):
        if par >= 0:
            kids[par].append(i)
    for k in kids:
        k.sort(key=tr.start.__getitem__)
    return kids


def _previous_end(tr, siblings, order, parent, child) -> float:
    """End of the sibling before ``child``, or the parent's start."""
    pos = order[child]
    return tr.end[siblings[pos - 1]] if pos else tr.start[parent]


def _add_steps(tr: Tracer, kids) -> bool:
    """Place one step span per StepRecord around that step's child spans."""
    try:
        return _place_steps(tr, kids)
    except AttributeError:  # StepRecord lost a field the placing reads
        return False


def _place_steps(tr: Tracer, kids) -> bool:
    for run, records in list(tr.result.items()):
        if tr.name[run] != "stepping.run":
            continue
        inner = [c for c in kids[run] if tr.name[c] in STEP_CHILDREN]
        order = {c: k for k, c in enumerate(kids[run])}
        pos = 0
        for rec in records:
            want = (["multigrid.direct_solve"] if rec.exact
                    else ["multigrid.vcycle", "multigrid.norm"] * rec.iterations)
            if pos < len(inner) and tr.name[inner[pos]] == "stepping.load":
                want.insert(0, "stepping.load")
            got = inner[pos:pos + len(want)]
            if [tr.name[c] for c in got] != want:
                return False
            pos += len(want)
            end = tr.end[got[-1]]
            start = max(end - rec.wall_time,
                        _previous_end(tr, kids[run], order, run, got[0]))
            step = tr.add("stepping.step", start, end, run)
            for c in got:
                tr.parent[c] = step
        if pos != len(inner):
            return False
    return True


def _add_cells(tr: Tracer, kids) -> bool:
    """Place one cell span per ErrorTable.timings entry around its run and
    error report."""
    for tab, seconds in list(tr.result.items()):
        if tr.name[tab] != "bench.table":
            continue
        inner = [c for c in kids[tab]
                 if tr.name[c] in ("stepping.run", "stepping.error")]
        order = {c: k for k, c in enumerate(kids[tab])}
        if [tr.name[c] for c in inner] != ["stepping.run", "stepping.error"] * len(seconds):
            return False
        for k, secs in enumerate(seconds):
            run, err = inner[2 * k], inner[2 * k + 1]
            end = tr.end[err]
            start = max(end - secs, _previous_end(tr, kids[tab], order, tab, run))
            cell = tr.add("bench.cell", start, end, tab)
            tr.parent[run] = tr.parent[err] = cell
    return True


def _self_times(tr: Tracer, kids):
    """Self time of every span, and the number of children that overlap a
    sibling or stick out of their parent."""
    own = [e - s for s, e in zip(tr.start, tr.end)]
    bad = 0
    eps = 1e-9
    for i, ks in enumerate(kids):
        prev = tr.start[i]
        for c in ks:
            if tr.start[c] < prev - eps or tr.end[c] > tr.end[i] + eps:
                bad += 1
            own[i] -= tr.end[c] - tr.start[c]
            prev = tr.end[c]
    return own, bad


def _subtree(kids, root) -> list:
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    v = sorted(values)
    return float(v[max(0, math.ceil(q * len(v)) - 1)])


def layer_metrics(tr: Tracer, root: int, untraced_s: float, cpu_s: float,
                  required, overhead_max: float):
    """Per-layer metrics of a traced run.

    ``root`` is the span around the timed call, ``untraced_s`` the median of
    the same call with tracing off.  Returns ``(metrics, warnings,
    failures)``; a metric whose spans could not be recorded is None.
    """
    warnings, failures = [], []
    kids = _children(tr)
    placed = {"stepping.step": _add_steps(tr, kids)}
    kids = _children(tr)
    placed["bench.cell"] = _add_cells(tr, kids)
    kids = _children(tr)
    own, overlaps = _self_times(tr, kids)

    groups = defaultdict(list)
    for i, n in enumerate(tr.name):
        groups[n].append(i)

    def dur(n):
        return [tr.end[i] - tr.start[i] for i in groups[n]]

    def total(n):
        return float(sum(dur(n)))

    records = [r for i in groups["stepping.run"] for r in tr.result[i]]
    try:
        walls = [1e3 * r.wall_time for r in records]
        exact = [bool(r.exact) for r in records]
    except AttributeError:
        walls, exact = [], []
        tr.missing.setdefault("stepping.run", "StepRecord.wall_time or .exact")
    run_s = tr.end[root] - tr.start[root]
    m = {
        "stepping.steps": len(records),
        "stepping.direct_steps": sum(exact),
        "stepping.inexact_steps": len(exact) - sum(exact),
        "stepping.step_p50_ms": percentile(walls, 0.5),
        "stepping.step_p90_ms": percentile(walls, 0.9),
        "stepping.rhs_self_s": float(sum(own[i] for i in groups["stepping.step"])),
        "stepping.load_s": total("stepping.load"),
        "stepping.error_s": total("stepping.error"),
        "multigrid.vcycles": len(groups["multigrid.vcycle"]),
        "multigrid.vcycle_s": total("multigrid.vcycle"),
        "multigrid.vcycle_p50_ms": 1e3 * percentile(dur("multigrid.vcycle"), 0.5),
        "multigrid.vcycle_self_s": float(sum(own[i] for i in groups["multigrid.vcycle"])),
        "multigrid.smooth_sweeps": sum(tr.weight[i] for i in groups["multigrid.smooth"]),
        "multigrid.smooth_s": total("multigrid.smooth"),
        "multigrid.coarse_solves": len(groups["multigrid.coarse_solve"]),
        "multigrid.coarse_s": total("multigrid.coarse_solve"),
        "multigrid.norm_calls": len(groups["multigrid.norm"]),
        "multigrid.norm_s": total("multigrid.norm"),
        "multigrid.direct_solves": len(groups["multigrid.direct_solve"]),
        "multigrid.direct_s": total("multigrid.direct_solve"),
        "multigrid.direct_p50_ms": 1e3 * percentile(dur("multigrid.direct_solve"), 0.5),
        "multigrid.factorizations": len(groups["multigrid.factorize"]),
        "multigrid.factor_s": total("multigrid.factorize"),
        "multigrid.builds": len(groups["multigrid.build"]),
        "multigrid.build_s": total("multigrid.build"),
        "fem.assemblies": len(groups["fem.assemble"]),
        "fem.assemble_s": total("fem.assemble"),
        "fem.projections": len(groups["fem.project"]),
        "fem.project_s": total("fem.project"),
        "cq.weights_s": total("cq.weights"),
        "bench.cells": len(groups["bench.cell"]),
        "bench.cell_p50_s": percentile(dur("bench.cell"), 0.5),
        "bench.cell_max_s": max(dur("bench.cell"), default=0.0),
        "proc.cpu_s": cpu_s,
        "proc.cpu_util": cpu_s / untraced_s,
        "trace.overhead_frac": run_s / untraced_s - 1.0,
        "trace.unattributed_frac": own[root] / run_s,
        "trace.spans": len(tr.name),
    }

    bad = {}
    for name, where in tr.missing.items():
        bad[name] = f"entry point {where} is gone and could not be wrapped"
    for name in required:
        if not groups[name] and name not in bad:
            bad[name] = f"no {name} span, though this workload must produce one"
    for name, ok in placed.items():
        if not ok and name not in bad:
            bad[name] = f"{name} spans could not be placed around their children"
    for name, why in sorted(bad.items()):
        nulled = [k for k, deps in METRIC_SPANS.items() if name in deps]
        warnings.append(f"{why}; reported as null: {', '.join(nulled) or 'none'}")
        for k in nulled:
            m[k] = None

    if overlaps:
        failures.append(f"trace: {overlaps} spans overlap a sibling or leave their parent")
    self_sum = sum(own[i] for i in _subtree(kids, root))
    if not math.isclose(self_sum, run_s, rel_tol=1e-9, abs_tol=1e-9):
        failures.append(f"trace: self times add up to {self_sum:.6f} s, "
                        f"not the traced call's {run_s:.6f} s")
    if not abs(m["trace.overhead_frac"]) <= overhead_max:
        failures.append(f"trace: traced call took {run_s:.3f} s against "
                        f"{untraced_s:.3f} s untraced, beyond {overhead_max:.0%}")
    return m, warnings, failures


def write_spans(tr: Tracer, path) -> None:
    """Spans as tab-separated lines: index, parent, name, start, end (s)."""
    t0 = min(tr.start) if tr.start else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\n")
        for i, (n, s, e, p) in enumerate(zip(tr.name, tr.start, tr.end, tr.parent)):
            fh.write(f"{i}\t{p}\t{n}\t{s - t0:.9f}\t{e - t0:.9f}\n")
