"""Outside-in layer trace: spans around the calls into each solver layer.

The solver modules import their collaborators by name
(``from .maxcut import solve_maxcut``), so a wrapper is installed by
rebinding the name in the namespace of the module that calls it.  Each
call becomes a span with its parent, kept in memory; a layer's self time
is its spans' duration minus the time covered by their child spans.
Counts are read from return values, so no code of the program changes.

The benchmark drives one solve at a time with one worker, so a plain
stack gives every span its parent.
"""

from __future__ import annotations

import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from workloads import DINKELBACH, SPLIT


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None):
        """Rebind ``module.attr`` to a spanning wrapper.

        ``note(span, args, kwargs, result)`` copies counts from the call
        into ``span.attrs``.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        out = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.seconds - covered[span.id]
        return dict(out)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def span_cost(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds one wrapped call adds to its caller.

    Times an empty function with and without a wrapper, in alternating
    rounds so that a change of host speed hits both alike.
    """
    probe = types.SimpleNamespace(f=lambda: None)
    tracer = Tracer()

    def round_seconds() -> float:
        started = time.perf_counter()
        for _ in range(calls):
            probe.f()
        return time.perf_counter() - started

    added = []
    for _ in range(repeats):
        bare = round_seconds()
        tracer.wrap(probe, "f", "probe")
        added.append(round_seconds() - bare)
        tracer.unwrap()
    return max(statistics.median(added), 0.0) / calls


def _note_sdp(span, args, kwargs, sol):
    span.attrs.update(iterations=sol.iterations, status=sol.status)


def _note_maxcut(span, args, kwargs, res):
    span.attrs.update(nodes=res.nodes, status=res.status)


def _note_anneal(span, args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    span.attrs.update(k=k, cut=result[0])


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    from cheeger import bounds, dinkelbach, maxcut, split_bound

    tracer.wrap(split_bound, "anneal_bisection", "annealing", _note_anneal)
    tracer.wrap(split_bound, "cheap_bisection_bound", "bounds")
    tracer.wrap(split_bound, "solve_maxcut", "maxcut", _note_maxcut)
    tracer.wrap(dinkelbach, "best_expansion_witness", "annealing")
    tracer.wrap(dinkelbach, "solve_maxcut", "maxcut", _note_maxcut)
    tracer.wrap(bounds, "sdp_solve", "sdp.cheap", _note_sdp)
    tracer.wrap(maxcut, "sdp_solve", "sdp.node", _note_sdp)
    tracer.wrap(maxcut, "enumerate_maxcut", "maxcut.enum")
    tracer.wrap(maxcut, "gw_round", "maxcut.rounding")
    tracer.wrap(maxcut, "improve_cut", "maxcut.rounding")


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("traced.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("solve.self_s", "s"),
    ("annealing.calls", "count"),
    ("annealing.s", "s"),
    ("annealing.improve_frac", "ratio"),
    ("bounds.calls", "count"),
    ("bounds.s", "s"),
    ("bounds.eliminated_frac", "ratio"),
    ("sdp.cheap.calls", "count"),
    ("sdp.cheap.s", "s"),
    ("sdp.cheap.iterations", "count"),
    ("sdp.cheap.nonoptimal", "count"),
    ("sdp.node.calls", "count"),
    ("sdp.node.s", "s"),
    ("sdp.node.iterations", "count"),
    ("sdp.node.nonoptimal", "count"),
    ("maxcut.calls", "count"),
    ("maxcut.s", "s"),
    ("maxcut.nodes", "count"),
    ("maxcut.leaves", "count"),
    ("maxcut.enum.s", "s"),
    ("maxcut.rounding.s", "s"),
    ("maxcut.triangle_solves", "count"),
    ("maxcut.root_closed_frac", "ratio"),
    ("split_bound.survivors", "count"),
    ("split_bound.exact_solves", "count"),
    ("split_bound.preelim_s", "s"),
    ("dinkelbach.evaluations", "count"),
)


def _reanneal_counts(tracer: Tracer) -> tuple[int, int]:
    """(re-anneals, re-anneals that beat the pre-elimination cut).

    Within one split solve the first annealing call at a cardinality k is
    the pre-elimination run; a later call at the same k is the survivor's
    re-anneal.
    """
    first_cut: dict = {}
    reanneals = improved = 0
    for span in tracer.named("annealing"):
        if "k" not in span.attrs:
            continue
        key = (span.parent, span.attrs["k"])
        if key not in first_cut:
            first_cut[key] = span.attrs["cut"]
            continue
        reanneals += 1
        improved += span.attrs["cut"] < first_cut[key]
    return reanneals, improved


def layer_metrics(tracer: Tracer, reports, passes: int,
                  traced_wall: float) -> dict[str, float]:
    """Per-layer metrics per corpus pass; ratios are over the whole run.

    ``reports`` are ``(method, SolveReport)`` pairs of the traced solves;
    ``traced_wall`` is the traced seconds per pass.  The tracing overhead
    is the number of spans times the cost of one wrapped call: a traced
    and an untraced pass differ by far more through host noise alone.
    """
    own = tracer.self_seconds()
    sdp = {kind: tracer.named(f"sdp.{kind}") for kind in ("cheap", "node")}
    maxcuts = tracer.named("maxcut")
    nodes = sum(s.attrs.get("nodes", 0) for s in maxcuts)
    leaves = len(tracer.named("maxcut.enum"))
    split = [r for method, r in reports if method == SPLIT]
    rows = [row for r in split for row in r.table]
    reanneals, improved = _reanneal_counts(tracer)
    totals = {
        "solve.self_s": own.get("solve", 0.0),
        "annealing.calls": len(tracer.named("annealing")),
        "annealing.s": own.get("annealing", 0.0),
        "bounds.calls": len(tracer.named("bounds")),
        "bounds.s": own.get("bounds", 0.0),
        "maxcut.calls": len(maxcuts),
        "maxcut.s": own.get("maxcut", 0.0),
        "maxcut.nodes": nodes,
        "maxcut.leaves": leaves,
        "maxcut.enum.s": own.get("maxcut.enum", 0.0),
        "maxcut.rounding.s": own.get("maxcut.rounding", 0.0),
        "maxcut.triangle_solves": len(sdp["node"]) - (nodes - leaves),
        "split_bound.survivors": sum(r.interesting for r in split),
        "split_bound.exact_solves": sum(r.iterations for r in split),
        "split_bound.preelim_s": sum(r.preelim_ms for r in split) / 1000.0,
        "dinkelbach.evaluations": sum(len(r.trace) for m, r in reports if m == DINKELBACH),
    }
    for kind, calls in sdp.items():
        totals[f"sdp.{kind}.calls"] = len(calls)
        totals[f"sdp.{kind}.s"] = own.get(f"sdp.{kind}", 0.0)
        totals[f"sdp.{kind}.iterations"] = sum(s.attrs.get("iterations", 0) for s in calls)
        totals[f"sdp.{kind}.nonoptimal"] = sum(s.attrs.get("status") != "optimal" for s in calls)
    out = {name: value / passes for name, value in totals.items()}
    out["traced.wall_s"] = traced_wall
    out["trace.overhead_s"] = len(tracer.spans) / passes * span_cost()
    out["annealing.improve_frac"] = _frac(improved, reanneals)
    out["bounds.eliminated_frac"] = _frac(
        sum(row.status == "eliminated-pre" for row in rows), len(rows))
    out["maxcut.root_closed_frac"] = _frac(
        sum(s.attrs.get("nodes") == 1 for s in maxcuts), len(maxcuts))
    return {name: out[name] for name, _ in LAYER_METRICS}
