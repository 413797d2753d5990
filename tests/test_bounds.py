"""Tests for spectral, global SDP, and per-cardinality bisection bounds."""

from fractions import Fraction

import pytest

from cheeger.bounds import (
    bisection_sdp_bound,
    cheap_bisection_bound,
    global_sdp_bound,
    spectral_bound,
)
from cheeger.graphs import (
    Graph,
    brute_force_bisection,
    brute_force_h,
    complete,
    cycle,
    gnp,
    hypercube,
    path,
)


def _star(leaves):
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_spectral_bound_known_values():
    # lambda_2 by hand: n for K_n, 2 - 2 cos(2 pi / n) for C_n, 2 for Q_d.
    assert spectral_bound(complete(4)) == pytest.approx(2.0, abs=1e-12)
    assert spectral_bound(complete(7)) == pytest.approx(3.5, abs=1e-12)
    assert spectral_bound(cycle(4)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_bound(cycle(6)) == pytest.approx(0.5, abs=1e-12)
    assert spectral_bound(hypercube(3)) == pytest.approx(1.0, abs=1e-12)


def test_global_bound_matches_spectral_value():
    # The relaxation optimum equals lambda_2/2, odd orders included; the
    # certified value must agree to tight tolerance.
    graphs = [
        complete(4),
        complete(5),
        cycle(5),
        cycle(7),
        cycle(9),
        path(6),
        hypercube(3),
        gnp(10, 0.4, seed=3),
    ]
    for g in graphs:
        assert global_sdp_bound(g) == pytest.approx(spectral_bound(g), abs=1e-5)


def test_global_bound_stays_below_expansion():
    for g in (complete(5), cycle(6), hypercube(3), gnp(9, 0.5, seed=0)):
        h, _ = brute_force_h(g)
        assert global_sdp_bound(g) <= float(h) + 1e-6


def test_cheap_bound_sandwich_against_enumeration():
    star6 = _star(5)
    cases = [
        complete(4),
        complete(5),
        cycle(6),
        path(4),
        star6,
        hypercube(3),
        gnp(9, 0.5, seed=1),
        gnp(10, 0.35, seed=4),
    ]
    for g in cases:
        for k in range(1, g.n // 2 + 1):
            lk = cheap_bisection_bound(g, k)
            exact, _ = brute_force_bisection(g, k)
            assert Fraction(1, k) <= lk <= Fraction(exact, k)
            assert lk.denominator == k or k % lk.denominator == 0


def test_cheap_bound_tight_cases():
    # Dense or symmetric instances where the relaxation already matches the
    # exact bisection after rounding.
    assert cheap_bisection_bound(complete(4), 1) == 3
    assert cheap_bisection_bound(complete(5), 2) == 3
    assert cheap_bisection_bound(cycle(6), 3) == Fraction(2, 3)
    assert cheap_bisection_bound(path(4), 2) == Fraction(1, 2)


def test_cheap_bound_on_star_is_exact_for_every_size():
    star6 = _star(5)
    for k in range(1, 4):
        assert cheap_bisection_bound(star6, k) == 1


def test_raw_bisection_bound_below_exact_value():
    g = gnp(9, 0.5, seed=1)
    for k in range(1, 5):
        exact, _ = brute_force_bisection(g, k)
        assert bisection_sdp_bound(g, k) <= exact + 1e-6


def test_cardinality_out_of_range_rejected():
    g = cycle(6)
    with pytest.raises(ValueError):
        cheap_bisection_bound(g, 0)
    with pytest.raises(ValueError):
        cheap_bisection_bound(g, 4)
