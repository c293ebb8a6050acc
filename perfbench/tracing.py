"""Outside-in layer tracing: spans around hopf_dde's layer boundaries.

`traced(tracer)` swaps the public names that `hopf_dde.cli` and
`hopf_dde.pipeline` call through for wrappers that record a span (name,
start, end, parent, op id) and a few counts, and restores them on exit.
Spans stay in memory; `layer_metrics` turns one op's spans into per-layer
busy time (self time: span duration minus its direct children) and counts.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import importlib
import os
import time

# wrapped boundary -> the per-layer time metric its self time adds to
BOUNDARIES = {
    "cli.load_config": "config.load_s",
    "cli.run_analysis": "pipeline.self_s",
    "cli.render_report": "report.render_s",
    "cli.write_trajectory_csv": "report.csv_s",
    "cli.write_phase_csv": "report.csv_s",
    "pipeline.find_equilibria": "equilibrium.busy_s",
    "pipeline.char_coeffs": "stability.busy_s",
    "pipeline.routh_hurwitz_stable": "stability.busy_s",
    "pipeline.hopf_candidates": "stability.busy_s",
    "pipeline.first_hopf": "stability.busy_s",
    "pipeline.classify_stability": "stability.busy_s",
    "pipeline.compute_normal_form": "normal_form.busy_s",
    "pipeline.integrate": "simulation.integrate_s",
    "pipeline.oscillation_summary": "simulation.summary_s",
}
ROOT = "cli.main"
TIME_METRICS = ("cli.self_s",) + tuple(dict.fromkeys(BOUNDARIES.values()))
SIM_BOUNDARIES = ("cli.write_trajectory_csv", "cli.write_phase_csv",
                  "pipeline.integrate", "pipeline.oscillation_summary")


def required_boundaries(simulates: bool) -> list[str]:
    """Boundaries a workload must reach; zero calls means broken wiring."""
    return [b for b in BOUNDARIES if simulates or b not in SIM_BOUNDARIES]


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    counts: dict = dataclasses.field(default_factory=dict)
    error: bool = False


def _counts(name: str, args, result) -> dict:
    if name == "cli.run_analysis":
        return {"pipeline.points": len(result),
                "pipeline.branches": sum(len(r.branches) for r in result),
                "pipeline.branch_errors": sum(br.error is not None
                                              for r in result for br in r.branches)}
    if name == "pipeline.find_equilibria":
        return {"equilibrium.roots": len(result)}
    if name == "pipeline.first_hopf":
        return {"stability.hopf_found": int(result is not None)}
    if name == "pipeline.integrate":
        tau, t_end = args[1], args[3]
        return {"simulation.steps": len(result.t) - 1,
                "simulation.intervals": t_end / tau}
    if name == "cli.render_report":
        return {"report.render_bytes": len(result.encode("utf-8"))}
    if name in ("cli.write_trajectory_csv", "cli.write_phase_csv"):
        return {"report.csv_bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """In-memory span store; `op` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, op=self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
            span.counts = _counts(name, args, result)
            return result
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every boundary in BOUNDARIES for the duration of the block."""
    saved = []
    try:
        for name in BOUNDARIES:
            mod_name, attr = name.split(".")
            mod = importlib.import_module(f"hopf_dde.{mod_name}")
            if not hasattr(mod, attr):
                raise RuntimeError(f"trace wiring: hopf_dde.{name} no longer exists")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, lambda *a, _n=name, _f=fn, **k: tracer.call(_n, _f, *a, **k))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_metrics(spans: list[Span], first: int) -> collections.Counter:
    """Per-layer self seconds, counts, and calls/errors per boundary of spans[first:]."""
    own = spans[first:]
    child = [0.0] * len(own)
    for s in own:
        if s.parent is not None and s.parent >= first:
            child[s.parent - first] += s.end - s.start
    out = collections.Counter()
    for s, c in zip(own, child):
        out[BOUNDARIES.get(s.name, "cli.self_s")] += s.end - s.start - c
        out["calls." + s.name] += 1
        out["errors." + s.name] += s.error
        out.update(s.counts)
    return out


def calls_into(m, time_metric: str) -> float:
    """Calls through the boundaries whose self time adds to time_metric."""
    return sum(m["calls." + b] for b, t in BOUNDARIES.items() if t == time_metric)
