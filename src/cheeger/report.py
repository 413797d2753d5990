"""Structured solve results and their frozen serialized forms.

A solve run produces a :class:`SolveReport` holding the exact rational
answer, the witness subset, and run statistics.  Three renderings are
provided:

* ``report_json``: the full record, schema-versioned, timings included.
* ``canonical_json``: the same record minus every wall-clock field, so
  that repeated runs with a fixed seed produce identical bytes.  Harness
  scripts diff this form.
* CSV tables for the per-cardinality bounds and the ratio-search trace,
  with column order frozen.

Vertices are 0-based inside the process and 1-based in every rendered
form, matching the graph file formats.  All times are milliseconds from
a monotonic clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class BoundRow:
    """Per-cardinality bounds on the bisection ratio cut(S)/k.

    ``status`` is one of ``eliminated-pre``, ``eliminated-update``,
    ``eliminated-root``, ``solved``, or ``pending``.  The witness holds
    the best known subset of size k, 0-based, or is empty.
    """

    k: int
    lower: Fraction
    upper: Fraction
    status: str
    witness: tuple[int, ...] = ()


@dataclass(frozen=True)
class TraceRow:
    """One ratio-search iteration: objective value and inner solver cost."""

    iteration: int
    gamma: Fraction
    q_value: int
    denominator: int
    nodes: int
    ms: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a full expansion solve.

    On ``status == "solved"`` the lower and upper fields agree and equal
    h(G).  On ``status == "limit"`` they bracket it.  ``interesting`` is
    the number of cardinalities that survived pre-elimination,
    ``root_solved`` counts inner solves that finished at their root node,
    and ``iterations`` counts exact-phase subproblems or ratio-search
    evaluations depending on the method.
    """

    method: str
    n: int
    m: int
    status: str
    lower: Fraction
    upper: Fraction
    witness: tuple[int, ...]
    interesting: int
    root_solved: int
    nodes: int
    iterations: int
    seed: int
    preelim_ms: float
    total_ms: float
    table: tuple[BoundRow, ...] = ()
    trace: tuple[TraceRow, ...] = ()


# Frozen column order of each rendered row type; the cell functions below
# list the values in this order.
BOUND_COLUMNS = ("k", "lower_num", "lower_den", "upper_num", "upper_den", "status")
TRACE_COLUMNS = ("iteration", "gamma_num", "gamma_den", "q", "denominator", "nodes", "ms")
NODE_COLUMNS = ("node", "depth", "bound", "incumbent")
_MS_COLUMNS = ("ms", "preelim_ms", "total_ms")


def _bound_cells(row: BoundRow) -> list:
    return [row.k, row.lower.numerator, row.lower.denominator,
            row.upper.numerator, row.upper.denominator, row.status]


def _trace_cells(row: TraceRow) -> list:
    return [row.iteration, row.gamma.numerator, row.gamma.denominator,
            row.q_value, row.denominator, row.nodes, row.ms]


def _summary(report: SolveReport) -> dict:
    """The one-row summary, keyed and ordered by its frozen columns."""
    return {
        "method": report.method,
        "n": report.n,
        "m": report.m,
        "status": report.status,
        "h_num": report.upper.numerator,
        "h_den": report.upper.denominator,
        "lower_num": report.lower.numerator,
        "lower_den": report.lower.denominator,
        "witness": [v + 1 for v in report.witness],
        "interesting": report.interesting,
        "root_solved": report.root_solved,
        "nodes": report.nodes,
        "iterations": report.iterations,
        "seed": report.seed,
        # Schema 1 keeps this column; the search always runs one loop.
        "workers": 1,
        "preelim_ms": report.preelim_ms,
        "total_ms": report.total_ms,
    }


def _payload(report: SolveReport, timed: bool) -> dict:
    """The JSON record; without ``timed``, every millisecond field is left out."""
    payload = {"schema": 1, **_summary(report)}
    trace = [_trace_cells(row) for row in report.trace]
    if not timed:
        del payload["preelim_ms"], payload["total_ms"]
        trace = [cells[:-1] for cells in trace]
    payload["table"] = [_bound_cells(row) for row in report.table]
    payload["trace"] = trace
    return payload


def canonical_json(report: SolveReport) -> str:
    """Timing-free rendering; byte-stable for a fixed seed."""
    payload = _payload(report, timed=False)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def report_json(report: SolveReport) -> str:
    """Full rendering with millisecond timings."""
    return json.dumps(_payload(report, timed=True), sort_keys=True, indent=2) + "\n"


def bounds_json(n: int, m: int, rows) -> str:
    """The bounds table of an n-vertex, m-edge graph as a JSON record."""
    payload = {"schema": 1, "n": n, "m": m, "table": [_bound_cells(row) for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv(columns, rows) -> str:
    """Header and rows; milliseconds to three decimals, the witness quoted."""
    lines = [",".join(columns)]
    for cells in rows:
        lines.append(",".join(
            f"{value:.3f}" if name in _MS_COLUMNS
            else f'"{" ".join(map(str, value))}"' if name == "witness"
            else str(value)
            for name, value in zip(columns, cells)
        ))
    return "\n".join(lines) + "\n"


def bounds_csv(rows) -> str:
    """Frozen columns ``BOUND_COLUMNS``."""
    return _csv(BOUND_COLUMNS, map(_bound_cells, rows))


def trace_csv(rows) -> str:
    """Frozen columns ``TRACE_COLUMNS``."""
    return _csv(TRACE_COLUMNS, map(_trace_cells, rows))


def node_trace_csv(rows) -> str:
    """Frozen columns ``NODE_COLUMNS``, from ``solve_maxcut``'s trace rows."""
    return _csv(NODE_COLUMNS, ((i, depth, f"{bound:.6f}", inc) for i, depth, bound, inc in rows))


def summary_csv(report: SolveReport) -> str:
    """One-row summary; frozen columns matching the JSON field names."""
    summary = _summary(report)
    return _csv(summary, [summary.values()])


def text_summary(report: SolveReport) -> str:
    """Human-readable rendering for terminal output."""
    value = report.upper
    lines = [
        f"method      {report.method}",
        f"graph       n={report.n} m={report.m}",
        f"status      {report.status}",
    ]
    if report.status == "solved":
        lines.append(f"h(G)        {value.numerator}/{value.denominator}"
                     f" = {float(value):.6f}")
    else:
        lines.append(
            f"bounds      [{report.lower.numerator}/{report.lower.denominator},"
            f" {report.upper.numerator}/{report.upper.denominator}]"
        )
    witness = " ".join(str(v + 1) for v in report.witness)
    lines.append(f"witness     {{{witness}}}")
    lines.append(
        f"stats       interesting={report.interesting}"
        f" root_solved={report.root_solved} nodes={report.nodes}"
        f" iterations={report.iterations}"
    )
    lines.append(
        f"time        preelim={report.preelim_ms:.1f}ms"
        f" total={report.total_ms:.1f}ms"
    )
    return "\n".join(lines) + "\n"
