"""Tests for the swap-move annealing heuristic."""

import functools
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger.annealing import _descend, _gains, anneal_bisection, best_expansion_witness
from cheeger.graphs import (
    Graph,
    VertexSubset,
    brute_force_bisection,
    cut_value,
    cycle,
    edge_connectivity,
    gnp,
    hypercube,
)


def test_result_is_feasible_and_consistent():
    g = gnp(12, 0.3, seed=5)
    for k in (1, 3, 6):
        value, subset = anneal_bisection(g, k, seed=0)
        assert subset.size == k
        assert value == cut_value(g, subset)


def test_upper_bounds_dominate_exact_bisection():
    for g in (cycle(6), hypercube(3), gnp(10, 0.4, seed=2)):
        for k in range(1, g.n // 2 + 1):
            value, _ = anneal_bisection(g, k, seed=0)
            exact, _ = brute_force_bisection(g, k)
            assert value >= exact


def test_finds_exact_optimum_at_small_scale():
    # At n <= 14 a single restart reliably lands on the optimum; keep this
    # pinned so schedule regressions show up.
    for g in (cycle(6), hypercube(3), gnp(12, 0.3, seed=5)):
        for k in range(1, g.n // 2 + 1):
            value, _ = anneal_bisection(g, k, seed=0)
            exact, _ = brute_force_bisection(g, k)
            assert value == exact


def test_expansion_witness_on_even_cycle():
    # h(C6) = 2/3 via the arc of three consecutive vertices; every seed
    # should find it.
    for seed in range(10):
        ratio, witness = best_expansion_witness(cycle(6), seed=seed)
        assert ratio == Fraction(2, 3)
        assert cut_value(cycle(6), witness) == 2
        assert witness.size == 3


def test_deterministic_given_seed():
    g = gnp(12, 0.3, seed=5)
    assert anneal_bisection(g, 4, seed=7) == anneal_bisection(g, 4, seed=7)
    a, _ = anneal_bisection(g, 4, seed=7)
    b, _ = anneal_bisection(g, 4, seed=8)
    # Different seeds may or may not differ in value; the call must not blow
    # up and both must stay feasible upper bounds.
    exact, _ = brute_force_bisection(g, 4)
    assert min(a, b) >= exact


def _local_search(g, subset):
    """The annealer's steepest-descent swap search from ``subset``."""
    value, mask = _descend(g, subset.mask, cut_value(g, subset), _gains(g, subset.mask))
    return value, VertexSubset(g.n, mask)


def test_local_search_reaches_fixed_point():
    g = gnp(10, 0.4, seed=1)
    start = VertexSubset.from_indices(10, (0, 1, 2, 3))
    value, subset = _local_search(g, start)
    assert value == cut_value(g, subset)
    again_value, again_subset = _local_search(g, subset)
    assert (again_value, again_subset.mask) == (value, subset.mask)


def test_argument_validation():
    g = cycle(6)
    with pytest.raises(ValueError):
        anneal_bisection(g, 0, seed=0)
    with pytest.raises(ValueError):
        anneal_bisection(g, 4, seed=0)


# -- full-rescan reference -------------------------------------------------
#
# The plain search the gain bookkeeping replaced: every pass recomputes
# every swap delta from the adjacency masks.  The fast search must take the
# same pair at every step, so its results match this one exactly.


def _reference_swap_delta(g, mask, u, v):
    deg = g.degrees
    adj = g.adj_masks
    after_u = mask ^ (1 << u)
    return (
        2 * (adj[u] & mask).bit_count()
        - deg[u]
        + deg[v]
        - 2 * (adj[v] & after_u).bit_count()
    )


def _reference_local_search(g, subset):
    mask = subset.mask
    value = cut_value(g, subset)
    n = g.n
    improved = True
    while improved:
        improved = False
        best_delta = 0
        best_pair = None
        inside = [u for u in range(n) if mask >> u & 1]
        outside = [v for v in range(n) if not mask >> v & 1]
        for u in inside:
            for v in outside:
                delta = _reference_swap_delta(g, mask, u, v)
                if delta < best_delta:
                    best_delta = delta
                    best_pair = (u, v)
        if best_pair is not None:
            u, v = best_pair
            mask = mask ^ (1 << u) | (1 << v)
            value += best_delta
            improved = True
    return value, VertexSubset(g.n, mask)


def test_local_search_matches_full_rescan():
    rng = random.Random(2024)
    graphs = [cycle(10), cycle(15), cycle(20), hypercube(3), hypercube(4)]
    graphs += [gnp(n, 0.3, seed=n) for n in range(10, 21)]
    for g in graphs:
        for k in range(1, g.n // 2 + 1):
            for _ in range(4):
                start = VertexSubset.from_indices(g.n, rng.sample(range(g.n), k))
                got_value, got = _local_search(g, start)
                want_value, want = _reference_local_search(g, start)
                assert (got_value, got.mask) == (want_value, want.mask)


# (graph, k, seed, value, mask), recorded with the full-rescan search; a
# change here means the seed-to-result mapping moved.  Each id keeps the
# restart count its row was first pinned with (the best of several runs,
# which the one run reproduces), so the test names stay stable.
_PINNED_ANNEALS = [
    pytest.param(cycle(18), 9, 0, 2, 0x3E00F, id="g0-9-0-3-2-253967"),
    pytest.param(hypercube(4), 8, 2, 8, 0x5555, id="g1-8-2-1-8-21845"),
    pytest.param(gnp(16, 0.3, 1), 5, 3, 6, 0x3124, id="g2-5-3-2-6-12580"),
    pytest.param(gnp(20, 0.3, 9), 7, 1, 18, 0xA5422, id="g3-7-1-1-18-676898"),
    pytest.param(gnp(20, 0.3, 9), 10, 4, 20, 0xAF4A2, id="g4-10-4-2-20-717986"),
    pytest.param(gnp(14, 0.5, 7), 3, 11, 10, 0xE0, id="g5-3-11-1-10-224"),
]


@pytest.mark.parametrize("g, k, seed, value, mask", _PINNED_ANNEALS)
def test_anneal_results_are_pinned(g, k, seed, value, mask):
    got_value, got = anneal_bisection(g, k, seed=seed)
    assert (got_value, got.mask) == (value, mask)


# SHA-256 over "cut mask" lines of every call below, recorded with the
# walk that scored swaps by popcounts and rebuilt the gains per polish.
PINNED_ANNEAL_SWEEP_CALLS = 252
PINNED_ANNEAL_SWEEP_DIGEST = "dd48343f17c4d800ad6602cf3e07c6e38d7d67747c52c474b7485b04533f5f71"


def _sweep_graphs():
    graphs = [cycle(12), cycle(17), cycle(24)]
    return graphs + [gnp(n, p, s) for n in (14, 16, 20) for p in (0.3, 0.4) for s in (1, 9)]


def _anneal_sweep(floors=None):
    """(calls, digest) of the pinned sweep; ``floors(g)[k]`` is the
    ``lower_cut`` of every call at k, and without it none is passed."""
    digest = hashlib.sha256()
    calls = 0
    for g in _sweep_graphs():
        lower = None if floors is None else floors(g)
        for k in range(1, g.n // 2 + 1):
            for seed in (0, 3):
                floor = {} if lower is None else {"lower_cut": lower[k]}
                cut, subset = anneal_bisection(g, k, seed=seed, **floor)
                digest.update(f"{cut} {subset.mask}\n".encode())
                calls += 1
    return calls, digest.hexdigest()


def test_anneal_sweep_is_pinned():
    assert _anneal_sweep() == (PINNED_ANNEAL_SWEEP_CALLS, PINNED_ANNEAL_SWEEP_DIGEST)


@functools.cache
def _optimal_cuts(g):
    """Least size-k cut for every k up to n/2, by enumerating all subsets
    of the first n - 1 vertices (a size-k set or its complement is one)."""
    n = g.n
    by_size = [math.inf] * n
    for start in range(0, 1 << (n - 1), 1 << 18):
        x = np.arange(start, min(start + (1 << 18), 1 << (n - 1)), dtype=np.int64)
        bits = [(x >> v & 1).astype(np.uint8) for v in range(n - 1)]
        bits.append(np.zeros_like(bits[0]))
        cut = sum(bits[u] ^ bits[v] for u, v in g.edges)
        size = sum(bits)
        for c in range(n):
            here = cut[size == c]
            if len(here):
                by_size[c] = min(by_size[c], int(here.min()))
    return [None] + [min(by_size[k], by_size[n - k]) for k in range(1, n // 2 + 1)]


def _connectivity_floors(g):
    return [edge_connectivity(g)] * (g.n // 2 + 1)


@pytest.mark.parametrize("floors", [_optimal_cuts, _connectivity_floors],
                         ids=["optimum", "connectivity"])
def test_floor_keeps_the_sweep_pinned(floors):
    # A run that stops at a certified floor returns what the full run
    # returns.
    assert _anneal_sweep(floors) == (PINNED_ANNEAL_SWEEP_CALLS, PINNED_ANNEAL_SWEEP_DIGEST)


@pytest.mark.parametrize("g", [cycle(12), hypercube(4)], ids=["C12", "Q4"])
def test_floor_above_a_genuine_cut_raises(g):
    # On these graphs every run at seed 0 finds the optimum before any
    # cut one above it, so a floor of optimum + 1 is undercut.
    for k in range(1, g.n // 2 + 1):
        optimum, _ = brute_force_bisection(g, k)
        with pytest.raises(RuntimeError, match="unsound"):
            anneal_bisection(g, k, seed=0, lower_cut=optimum + 1)
        assert anneal_bisection(g, k, seed=0, lower_cut=optimum)[0] == optimum


# -- properties against brute force ----------------------------------------


@st.composite
def _graph_and_start(draw):
    """A connected graph on 3..12 vertices and a start subset of size k."""
    n = draw(st.integers(3, 12))
    # A random tree keeps the graph connected; extra edges on top.
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, keep in zip(pairs, extra) if keep}
    g = Graph.build(n, edges)
    k = draw(st.integers(1, n // 2))
    members = draw(st.permutations(range(n)))[:k]
    return g, VertexSubset.from_indices(n, members)


@settings(max_examples=150, deadline=None)
@given(_graph_and_start())
def test_local_search_properties(case):
    g, start = case
    k = start.size
    value, subset = _local_search(g, start)
    assert subset.size == k
    assert value == cut_value(g, subset)
    for u in subset.indices():
        for v in subset.complement().indices():
            swapped = VertexSubset(g.n, subset.mask ^ (1 << u) | (1 << v))
            assert cut_value(g, swapped) >= value
    exact, _ = brute_force_bisection(g, k)
    assert value >= exact
