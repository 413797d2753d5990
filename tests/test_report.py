"""Tests for report serialization stability."""

import json
from fractions import Fraction

from cheeger.report import (
    BoundRow,
    SolveReport,
    TraceRow,
    bounds_csv,
    canonical_json,
    report_json,
    summary_csv,
    text_summary,
    trace_csv,
)


def _sample_report(total_ms=12.5):
    table = (
        BoundRow(k=1, lower=Fraction(2), upper=Fraction(2), status="eliminated-pre",
                 witness=(0,)),
        BoundRow(k=3, lower=Fraction(2, 3), upper=Fraction(2, 3), status="solved",
                 witness=(0, 1, 2)),
    )
    trace = (
        TraceRow(iteration=1, gamma=Fraction(1), q_value=-1, denominator=3,
                 nodes=1, ms=4.0),
        TraceRow(iteration=2, gamma=Fraction(2, 3), q_value=0, denominator=3,
                 nodes=1, ms=3.0),
    )
    return SolveReport(
        method="split-bound",
        n=6,
        m=6,
        status="solved",
        lower=Fraction(2, 3),
        upper=Fraction(2, 3),
        witness=(0, 1, 2),
        interesting=2,
        root_solved=1,
        nodes=5,
        iterations=2,
        seed=0,
        preelim_ms=3.25,
        total_ms=total_ms,
        table=table,
        trace=trace,
    )


def test_canonical_json_ignores_wall_clock():
    fast = canonical_json(_sample_report(total_ms=1.0))
    slow = canonical_json(_sample_report(total_ms=99.0))
    assert fast == slow
    assert "ms" not in json.loads(fast)
    assert report_json(_sample_report(1.0)) != report_json(_sample_report(99.0))


def test_json_payload_fields():
    payload = json.loads(report_json(_sample_report()))
    assert payload["schema"] == 1
    assert payload["h_num"] == 2 and payload["h_den"] == 3
    assert payload["witness"] == [1, 2, 3]
    assert payload["table"][0] == [1, 2, 1, 2, 1, "eliminated-pre"]
    assert payload["trace"][1] == [2, 2, 3, 0, 3, 1, 3.0]
    assert payload["total_ms"] == 12.5


def test_canonical_trace_rows_have_no_time_column():
    payload = json.loads(canonical_json(_sample_report()))
    assert payload["trace"][0] == [1, 1, 1, -1, 3, 1]
    assert "total_ms" not in payload and "preelim_ms" not in payload


def test_bounds_csv_frozen_columns():
    text = bounds_csv(_sample_report().table)
    lines = text.splitlines()
    assert lines[0] == "k,lower_num,lower_den,upper_num,upper_den,status"
    assert lines[1] == "1,2,1,2,1,eliminated-pre"
    assert lines[2] == "3,2,3,2,3,solved"


def test_trace_csv_frozen_columns():
    text = trace_csv(_sample_report().trace)
    lines = text.splitlines()
    assert lines[0] == "iteration,gamma_num,gamma_den,q,denominator,nodes,ms"
    assert lines[1] == "1,1,1,-1,3,1,4.000"


def test_summary_csv_one_based_witness():
    lines = summary_csv(_sample_report()).splitlines()
    assert lines[0].startswith("method,n,m,status,h_num")
    assert '"1 2 3"' in lines[1]


def test_workers_column_is_always_one():
    # Schema 1 keeps the column; the search runs one loop, so the value
    # written is the thread count that actually ran.
    assert json.loads(canonical_json(_sample_report()))["workers"] == 1
    header, row = summary_csv(_sample_report()).splitlines()
    assert dict(zip(header.split(","), row.split(",")))["workers"] == "1"


def test_text_summary_shows_rational_value():
    text = text_summary(_sample_report())
    assert "2/3" in text
    assert "0.666667" in text
    assert "{1 2 3}" in text
