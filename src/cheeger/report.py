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


def _base_payload(report: SolveReport) -> dict:
    return {
        "schema": 1,
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
        "table": [
            [row.k, row.lower.numerator, row.lower.denominator,
             row.upper.numerator, row.upper.denominator, row.status]
            for row in report.table
        ],
        "trace": [
            [row.iteration, row.gamma.numerator, row.gamma.denominator,
             row.q_value, row.denominator, row.nodes]
            for row in report.trace
        ],
    }


def canonical_json(report: SolveReport) -> str:
    """Timing-free rendering; byte-stable for a fixed seed."""
    payload = _base_payload(report)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def report_json(report: SolveReport) -> str:
    """Full rendering with millisecond timings appended."""
    payload = _base_payload(report)
    payload["preelim_ms"] = report.preelim_ms
    payload["total_ms"] = report.total_ms
    payload["trace"] = [
        [row.iteration, row.gamma.numerator, row.gamma.denominator,
         row.q_value, row.denominator, row.nodes, row.ms]
        for row in report.trace
    ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def bounds_csv(rows) -> str:
    """Frozen columns: k,lower_num,lower_den,upper_num,upper_den,status."""
    lines = ["k,lower_num,lower_den,upper_num,upper_den,status"]
    for row in rows:
        lines.append(
            f"{row.k},{row.lower.numerator},{row.lower.denominator},"
            f"{row.upper.numerator},{row.upper.denominator},{row.status}"
        )
    return "\n".join(lines) + "\n"


def trace_csv(rows) -> str:
    """Frozen columns: iteration,gamma_num,gamma_den,q,denominator,nodes,ms."""
    lines = ["iteration,gamma_num,gamma_den,q,denominator,nodes,ms"]
    for row in rows:
        lines.append(
            f"{row.iteration},{row.gamma.numerator},{row.gamma.denominator},"
            f"{row.q_value},{row.denominator},{row.nodes},{row.ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def summary_csv(report: SolveReport) -> str:
    """One-row summary; frozen columns matching the JSON field names."""
    header = (
        "method,n,m,status,h_num,h_den,lower_num,lower_den,witness,"
        "interesting,root_solved,nodes,iterations,seed,workers,"
        "preelim_ms,total_ms"
    )
    witness = " ".join(str(v + 1) for v in report.witness)
    row = (
        f"{report.method},{report.n},{report.m},{report.status},"
        f"{report.upper.numerator},{report.upper.denominator},"
        f"{report.lower.numerator},{report.lower.denominator},"
        f"\"{witness}\",{report.interesting},{report.root_solved},"
        f"{report.nodes},{report.iterations},{report.seed},1,"
        f"{report.preelim_ms:.3f},{report.total_ms:.3f}"
    )
    return header + "\n" + row + "\n"


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
