"""Tests for the per-cardinality split and bound solver."""

import math
import random
from fractions import Fraction

import pytest

from cheeger import dinkelbach, maxcut, split_bound
from cheeger.dinkelbach import dinkelbach_solve, evaluate_q
from cheeger.graphs import (
    VertexSubset,
    brute_force_bisection,
    brute_force_h,
    complete,
    cut_value,
    cycle,
    expansion,
    gnp,
    hypercube,
)
from cheeger.maxcut import Budget, solve_maxcut
from cheeger.report import bounds_csv, canonical_json
from cheeger.sdp import SdpError
from cheeger.split_bound import (
    LimitExceeded,
    pre_eliminate,
    solve_cardinality,
    split_and_bound,
    verify_lower_bound,
)
from cheeger.transforms import bisection_to_maxcut

LEGAL_STATUSES = {
    "eliminated-pre",
    "eliminated-update",
    "eliminated-root",
    "solved",
    "pending",
}


def _crude_heuristic(g, k, seed=0, lower_cut=0):
    """Deliberately weak stand-in: always proposes the first k vertices."""
    s = VertexSubset.from_indices(g.n, range(k))
    return cut_value(g, s), s


def test_pre_eliminate_complete_graph():
    table = pre_eliminate(complete(4))
    assert table.lower == {1: Fraction(3), 2: Fraction(2)}
    assert table.ustar == 2
    assert table.survivors() == []


def test_pre_eliminate_cycle_six():
    table = pre_eliminate(cycle(6))
    assert table.ustar == Fraction(2, 3)
    assert table.lower[3] == Fraction(2, 3)
    assert table.status[1] == "eliminated-pre"
    assert set(table.survivors()) <= {2, 3}


def test_cycle_six_report():
    g = cycle(6)
    rep = split_and_bound(g)
    assert rep.status == "solved"
    assert rep.upper == Fraction(2, 3)
    assert rep.lower == rep.upper
    witness = VertexSubset.from_indices(g.n, rep.witness)
    assert witness.size == 3
    assert expansion(g, witness) == Fraction(2, 3)
    text = bounds_csv(rep.table)
    assert text.splitlines()[0].startswith("k,lower_num")
    assert len(text.splitlines()) == 4


@pytest.mark.parametrize("solve", [split_and_bound, dinkelbach_solve])
@pytest.mark.parametrize("workers", [0, 2])
def test_only_one_worker_is_accepted(solve, workers):
    with pytest.raises(ValueError, match="workers must be 1"):
        solve(cycle(6), workers=workers)


def test_reports_are_byte_stable():
    first = canonical_json(split_and_bound(cycle(6), seed=3))
    second = canonical_json(split_and_bound(cycle(6), seed=3))
    assert first == second


def test_hypercube_four():
    rep = split_and_bound(hypercube(4))
    assert rep.status == "solved"
    assert rep.upper == 1


def test_random_graphs_match_brute_force():
    rng = random.Random(0)
    for trial in range(10):
        n = rng.randint(6, 12)
        p = rng.choice([0.3, 0.5, 0.7])
        g = gnp(n, p, seed=100 + trial)
        rep = split_and_bound(g, seed=trial)
        expected, _ = brute_force_h(g)
        assert rep.status == "solved"
        assert rep.upper == expected
        witness = VertexSubset.from_indices(g.n, rep.witness)
        assert expansion(g, witness) == expected
        assert {row.status for row in rep.table} <= LEGAL_STATUSES
        for row in rep.table:
            assert row.lower <= row.upper


def test_exact_phase_recovers_from_weak_heuristic(monkeypatch):
    # With the heuristic crippled, the exact phase must still find h and
    # flip at least one cardinality to solved.
    monkeypatch.setattr("cheeger.split_bound.anneal_bisection", _crude_heuristic)
    for seed_g in (3, 4):
        g = gnp(10, 0.4, seed=seed_g)
        rep = split_and_bound(g, seed=0)
        expected, _ = brute_force_h(g)
        assert rep.upper == expected
        statuses = [row.status for row in rep.table]
        assert "solved" in statuses
        assert set(statuses) <= LEGAL_STATUSES


def test_processing_order_does_not_change_answer(monkeypatch):
    monkeypatch.setattr("cheeger.split_bound.anneal_bisection", _crude_heuristic)
    g = gnp(10, 0.4, seed=3)
    forward = split_and_bound(g, seed=0)
    orders = []

    def reversed_order(table):
        orders.append(sorted(table.survivors(), reverse=True))
        return orders[-1]

    monkeypatch.setattr("cheeger.split_bound._exact_order", reversed_order)
    backward = split_and_bound(g, seed=0)
    assert len(orders) == 1 and len(orders[0]) > 1
    assert forward.upper == backward.upper
    assert backward.status == "solved"


def test_eigenvalue_fallback_when_relaxation_fails(monkeypatch, caplog):
    def broken(g, k):
        raise SdpError("forced failure")

    monkeypatch.setattr("cheeger.split_bound.cheap_bisection_bound", broken)
    with caplog.at_level("WARNING", logger="cheeger.split_bound"):
        rep = split_and_bound(cycle(6))
    assert rep.upper == Fraction(2, 3)
    assert "fallback" in caplog.text


def test_limit_status_brackets_the_answer():
    g = gnp(13, 0.4, seed=1)
    rep = split_and_bound(g, seed=1, time_limit=0.0)
    expected, _ = brute_force_h(g)
    assert rep.status == "limit"
    assert rep.lower < rep.upper
    assert rep.lower <= expected <= rep.upper
    assert any(row.status == "pending" for row in rep.table)


@pytest.mark.parametrize("node_limit", [0, 1, 3, 10])
@pytest.mark.parametrize("solve", [split_and_bound, dinkelbach_solve])
def test_node_limit_caps_the_whole_run(solve, node_limit):
    # Every exact solve of the run charges one budget, so the run stops
    # at most one node past it: the second child of its last branching.
    rep = solve(cycle(30), node_limit=node_limit)
    assert rep.status == "limit"
    assert rep.nodes <= node_limit + 1
    assert rep.lower <= Fraction(2, 15) <= rep.upper


def test_verify_accepts_true_bounds_and_refutes_false_ones():
    g = cycle(6)
    assert verify_lower_bound(g, Fraction(2, 3)) == (True, None)
    assert verify_lower_bound(g, Fraction(0)) == (True, None)
    assert verify_lower_bound(g, Fraction(2, 3) - Fraction(1, 100))[0] is True
    ok, cert = verify_lower_bound(g, Fraction(7, 10))
    assert ok is False
    assert expansion(g, cert) < Fraction(7, 10)
    with pytest.raises(ValueError):
        verify_lower_bound(g, Fraction(-1, 2))


def test_verify_raises_when_budget_runs_out():
    g = gnp(13, 0.4, seed=1)
    with pytest.raises(LimitExceeded):
        verify_lower_bound(g, Fraction(5, 3), time_limit=0.0)


def _counting_anneal(monkeypatch):
    """Record k of every annealing call; (g, k) stay positional."""
    calls = []
    original = split_bound.anneal_bisection

    def counting(*args, **kwargs):
        assert len(args) == 2, args
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(split_bound, "anneal_bisection", counting)
    return calls


def test_time_limit_stops_annealing(monkeypatch):
    # With no time at all, only k = 1 is annealed (so an incumbent
    # exists); every other k gets the eigenvalue bound and a genuine cut.
    calls = _counting_anneal(monkeypatch)
    g = cycle(12)
    h, _ = brute_force_h(g)
    rep = split_and_bound(g, time_limit=0.0)
    assert calls == [1]
    assert rep.status == "limit"
    assert rep.lower <= h <= rep.upper
    for row in rep.table:
        exact, _ = brute_force_bisection(g, row.k)
        assert row.lower <= Fraction(exact, row.k) <= row.upper
        assert expansion(g, VertexSubset.from_indices(g.n, row.witness)) == row.upper

    calls.clear()
    table = pre_eliminate(g, budget=Budget(time_limit=0.0))
    assert calls == [1]
    assert table.cut_short and sorted(table.lower) == list(range(1, 7))
    assert not pre_eliminate(g).cut_short

    calls.clear()
    with pytest.raises(LimitExceeded):
        verify_lower_bound(g, h, time_limit=0.0)
    assert calls == [1]
    # A refuting cut already in hand is returned, not a limit.
    ok, cert = verify_lower_bound(g, Fraction(1), time_limit=0.0)
    assert ok is False and expansion(g, cert) < 1


def test_pre_eliminate_logs_every_cardinality(caplog):
    # One INFO line per k: its lower bound, its cut, whether the annealing
    # run stopped at its floor, and the floor's two parts, the connectivity
    # and the lower bound as a cut, ceil(lower * k).
    # The lines never reach the report.
    g = gnp(13, 0.4, seed=1)
    quiet = canonical_json(split_and_bound(g))
    with caplog.at_level("INFO", logger="cheeger.split_bound"):
        table = pre_eliminate(g)
        assert canonical_json(split_and_bound(g)) == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "cheeger.split_bound"]
    assert lines[:2] == [
        "pre-elimination k=1: lower bound 2, cut 2, annealed, stopped at floor 2 "
        "(connectivity 2, bound cut 2)",
        "pre-elimination k=2: lower bound 3/2, cut 4, annealed, full schedule above floor 3 "
        "(connectivity 2, bound cut 3)",
    ]
    count = len(table.lower)
    assert len(lines) == 2 * count and lines[count:] == lines[:count]
    for k, line in zip(sorted(table.lower), lines):
        assert line.startswith(f"pre-elimination k={k}: lower bound {table.lower[k]}, "
                               f"cut {table.upper_cut[k]}, annealed, ")

    caplog.clear()
    with caplog.at_level("INFO", logger="cheeger.split_bound"):
        pre_eliminate(cycle(8), budget=Budget(time_limit=0.0))
    lines = [r.getMessage() for r in caplog.records if r.name == "cheeger.split_bound"]
    assert lines[1:] == [
        f"pre-elimination k={k}: lower bound {lower}, cut 2, first k vertices, time limit"
        for k, lower in ((2, Fraction(1, 2)), (3, Fraction(2, 3)), (4, Fraction(1, 2)))
    ]


@pytest.mark.parametrize("g", [cycle(12), gnp(13, 0.4, seed=1), cycle(18)],
                         ids=["C12", "G13", "C18"])
def test_annealing_runs_once_per_cardinality(monkeypatch, g):
    # Survivors go straight to the exact step with the cut pre-elimination
    # annealed for them; no k is annealed twice.
    calls = _counting_anneal(monkeypatch)
    assert split_and_bound(g).status == "solved"
    assert calls == list(range(1, g.n // 2 + 1))
    calls.clear()
    assert solve_cardinality(g, 3).status == "solved"
    assert calls == [3]


def test_solve_cardinality_without_nodes_stays_pending():
    # No node may be spent, so the row brackets the optimum instead of
    # claiming it.
    g = cycle(14)
    row = solve_cardinality(g, 3, node_limit=0)
    exact, _ = brute_force_bisection(g, 3)
    assert row.status == "pending"
    assert row.lower <= Fraction(exact, 3) <= row.upper


class _Annealed(Exception):
    """Raised by stubs of the first work an entry point does."""


def _refuse_annealing(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Annealed

    monkeypatch.setattr(split_bound, "anneal_bisection", refuse)
    monkeypatch.setattr(split_bound, "cheap_lower_bound", refuse)
    monkeypatch.setattr(dinkelbach, "best_expansion_witness", refuse)
    monkeypatch.setattr(dinkelbach, "dinkelbach_to_maxcut", refuse)
    monkeypatch.setattr(maxcut, "_Search", refuse)


def _with_budget(call):
    """Hand a building block its limits the way a run does: in a Budget."""
    def run(seed=0, **limits):
        return call(seed=seed, budget=Budget(**limits))
    return run


_ENTRY_POINTS = {
    "solve_maxcut": _with_budget(lambda **kw: solve_maxcut(
        bisection_to_maxcut(cycle(20), 5, 4).instance, **kw)),
    "split_and_bound": lambda **kw: split_and_bound(gnp(13, 0.4, seed=1), **kw),
    "verify_lower_bound": lambda **kw: verify_lower_bound(cycle(30), Fraction(1, 8), **kw),
    "solve_cardinality": lambda **kw: solve_cardinality(cycle(12), 3, **kw),
    "pre_eliminate": _with_budget(lambda **kw: pre_eliminate(cycle(12), **kw)),
    "dinkelbach_solve": lambda **kw: dinkelbach_solve(gnp(13, 0.4, seed=1), **kw),
    "evaluate_q": _with_budget(lambda **kw: evaluate_q(cycle(12), Fraction(1, 3), **kw)),
}
_BAD_BUDGETS = {
    "nan-time": {"time_limit": math.nan},
    "negative-time": {"time_limit": -1.0},
    "negative-nodes": {"node_limit": -1},
    "negative-seed": {"seed": -1},
}


@pytest.mark.parametrize("entry, budget", [
    (entry, budget) for entry in _ENTRY_POINTS for budget in _BAD_BUDGETS
])
def test_bad_budgets_are_refused_up_front(monkeypatch, entry, budget):
    # A NaN limit fails every elapsed >= limit check, and a negative seed
    # only fails once node rounding seeds numpy: both are refused first.
    _refuse_annealing(monkeypatch)
    with pytest.raises(ValueError, match="must be nonnegative"):
        _ENTRY_POINTS[entry](**_BAD_BUDGETS[budget])


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_edge_budgets_reach_the_work(monkeypatch, entry):
    _refuse_annealing(monkeypatch)
    with pytest.raises(_Annealed):
        _ENTRY_POINTS[entry](node_limit=0, time_limit=math.inf, seed=0)


def test_graphs_beyond_the_relaxation_cap_are_refused_up_front(monkeypatch):
    # Split & bound relaxes instances of order n + 1; Dinkelbach adds two
    # slack counters, 2 * 9 vertices for n around 590.
    _refuse_annealing(monkeypatch)
    too_big = cycle(600)
    for call in (
        lambda: split_and_bound(too_big),
        lambda: verify_lower_bound(too_big, Fraction(1, 2)),
        lambda: solve_cardinality(too_big, 3),
        lambda: pre_eliminate(too_big),
        lambda: dinkelbach_solve(cycle(582)),
    ):
        with pytest.raises(ValueError, match="DIMENSION_CAP = 600"):
            call()
    for call in (
        lambda: split_and_bound(cycle(599)),
        lambda: dinkelbach_solve(cycle(581)),
    ):
        with pytest.raises(_Annealed):
            call()
