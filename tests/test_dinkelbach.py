"""Tests for the discrete Newton ratio search."""

import random
from fractions import Fraction

from cheeger.dinkelbach import dinkelbach_solve, evaluate_q
from cheeger.graphs import (
    VertexSubset,
    brute_force_h,
    complete,
    cut_value,
    cycle,
    expansion,
    gnp,
    hypercube,
    path,
)


def _crude_start(g, seed=0):
    s = VertexSubset.from_indices(g.n, [0])
    return Fraction(cut_value(g, s), 1), s


def test_objective_value_examples():
    assert evaluate_q(cycle(4), Fraction(0)).value == 2
    assert evaluate_q(cycle(6), Fraction(1)).value == -1
    assert evaluate_q(cycle(6), Fraction(2, 3)).value == 0


def test_witness_is_shrunk_to_minimal_support():
    # At gamma = 0 the objective is the plain cut, so a single vertex
    # achieving the mincut is among the minimizers.
    ev = evaluate_q(cycle(4), Fraction(0))
    assert ev.witness.size == 1
    assert cut_value(cycle(4), ev.witness) == 2


def test_sign_structure_around_the_root():
    g = cycle(6)
    h = Fraction(2, 3)
    for j in range(11):
        gamma = h * Fraction(j, 5)
        value = evaluate_q(g, gamma).value
        if j < 5:
            assert value > 0
        elif j == 5:
            assert value == 0
        else:
            assert value < 0


def test_known_families():
    rep = dinkelbach_solve(complete(4))
    assert rep.upper == 2
    assert rep.iterations <= 2
    assert dinkelbach_solve(cycle(6)).upper == Fraction(2, 3)
    assert dinkelbach_solve(hypercube(3)).upper == 1


def test_random_graphs_match_brute_force():
    rng = random.Random(1)
    for trial in range(8):
        n = rng.randint(6, 12)
        g = gnp(n, rng.choice([0.3, 0.5, 0.7]), seed=200 + trial)
        rep = dinkelbach_solve(g, seed=trial)
        expected, _ = brute_force_h(g)
        assert rep.status == "solved"
        assert rep.upper == expected
        witness = VertexSubset.from_indices(g.n, rep.witness)
        assert expansion(g, witness) == expected


def test_trace_invariants_under_forced_iteration(monkeypatch):
    monkeypatch.setattr("cheeger.dinkelbach.best_expansion_witness", _crude_start)
    g = cycle(14)
    rep = dinkelbach_solve(g)
    assert rep.upper == Fraction(2, 7)
    assert [str(row.gamma) for row in rep.trace] == ["2", "2/7"]
    for g in (cycle(14), gnp(13, 0.4, seed=1), gnp(12, 0.5, seed=7)):
        rep = dinkelbach_solve(g)
        expected, _ = brute_force_h(g)
        assert rep.upper == expected
        assert rep.iterations <= g.n // 2
        gammas = [row.gamma for row in rep.trace]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        sizes = [row.denominator for row in rep.trace]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        values = [row.q_value for row in rep.trace]
        assert all(v < 0 for v in values[:-1])
        assert values[-1] == 0


def test_limit_reports_valid_upper_bound():
    g = gnp(13, 0.4, seed=1)
    rep = dinkelbach_solve(g, time_limit=0.0)
    assert rep.status == "limit"
    assert rep.lower == 0
    witness = VertexSubset.from_indices(g.n, rep.witness)
    assert expansion(g, witness) == rep.upper


def test_wide_weights_are_flagged(caplog):
    gamma = Fraction(1 << 64)
    with caplog.at_level("WARNING", logger="cheeger.maxcut"):
        ev = evaluate_q(path(3), gamma)
    assert "bits" in caplog.text
    assert ev.value == 1 - (1 << 64)
    assert ev.witness.size == 1


def test_float_limit_is_flagged_for_tiny_ratios(caplog):
    # At gamma = 1/2^50 no weight reaches 2^53, but their total does, so
    # a node Laplacian's row sums would no longer be exact floats.
    gamma = Fraction(1, 1 << 50)
    with caplog.at_level("WARNING", logger="cheeger.maxcut"):
        ev = evaluate_q(path(3), gamma)
    assert "bits" in caplog.text
    assert ev.value == (1 << 50) - 1
    assert ev.witness.size == 1


def test_weights_below_the_float_limit_are_not_flagged(caplog):
    gamma = Fraction(1, 1 << 40)
    with caplog.at_level("WARNING", logger="cheeger.maxcut"):
        ev = evaluate_q(path(3), gamma)
    assert caplog.text == ""
    assert ev.value == (1 << 40) - 1
