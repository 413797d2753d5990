"""Simulated annealing for fixed-cardinality bisection upper bounds.

The move set swaps one vertex out of the candidate subset for one outside,
so every state keeps cardinality k.  Accepted states are polished by a
steepest-descent swap search whose result only updates the incumbent; the
walk itself continues from the unpolished state so it can still climb out
of the basin it just probed.

The swap search keeps the per-vertex gains of Kernighan and Lin (1970) and
Fiduccia and Mattheyses (1982).  For a subset S,

    gain[x] = 2 |N(x) & S| - deg(x),

so moving u out of S changes the cut by gain[u], moving v in changes it
by -gain[v], and swapping the two changes it by

    gain[u] - gain[v] + 2 [u ~ v].

The gains are set once per annealing run.  The walk keeps them with the
cut value of its state and scores each proposed swap by the formula
above; each polish descends from a copy.  After a swap (u out, v in)
every vertex adjacent to v gains 2 and every vertex adjacent to u loses
2, which costs O(deg u + deg v) instead of a rescan of all k (n - k)
pairs with popcounts.  A vertex u whose gain cannot beat the best delta so far
against the largest outside gain is skipped whole, since none of its
pairs could be taken.

Tie-break invariant: each step takes the *first* pair with the strictly
smallest negative delta in the scan order u ascending over S, then v
ascending over the complement.  The polished subsets, and with them every
downstream bound and report, depend on this order; any faster scan must
pick the same pair.

Floor: ``anneal_bisection`` takes ``lower_cut``, a certified lower
bound on every size-k cut (the edge connectivity, or a cheap SDP bound
times k), and returns as soon as its best cut reaches it, since no later
polish could beat that cut.  A best cut *below* the floor means the
bound is unsound, and raises.  The stop keeps the tie-break invariant:
every polish up to it returns the subset the full run's would.  All
randomness flows from ``random.Random`` seeded per (seed, k), so a run
stopped early leaves every other run's stream untouched, and every
result is reproducible bit for bit.  The edge connectivity stops a run
only where the least size-k cut equals it: on cycles at every k, but on
the benchmark's G(n, p) graphs only at k = 1, and there only when the
least degree is the connectivity.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .graphs import Graph, VertexSubset, cut_value, edge_connectivity

# Cooling schedule: geometric with a floor, growing trial counts, and a
# patience of improvement-free cycles before giving up.
COOLING = 0.7
TRIAL_GROWTH = 1.15
TEMPERATURE_FLOOR_FACTOR = 1e-3
PATIENCE = 3


def _gains(g: Graph, mask: int) -> list[int]:
    """gain[x] = 2 |N(x) & S| - deg(x) for the subset S with this mask."""
    return [2 * (a & mask).bit_count() - d for a, d in zip(g.adj_masks, g.degrees)]


def _descend(g: Graph, mask: int, value: int, gain: list[int]) -> tuple[int, int]:
    """Steepest descent from the subset ``mask`` with cut ``value`` and
    gains ``gain``, which it updates in place; returns (cut, mask)."""
    n = g.n
    adj = g.adj_masks
    while True:
        inside = [u for u in range(n) if mask >> u & 1]
        outside = [v for v in range(n) if not mask >> v & 1]
        top = max(gain[v] for v in outside)
        best_delta = 0
        best_pair = None
        for u in inside:
            gu = gain[u]
            if gu - top >= best_delta:
                continue
            au = adj[u]
            for v in outside:
                delta = gu - gain[v] + 2 * (au >> v & 1)
                if delta < best_delta:
                    best_delta = delta
                    best_pair = (u, v)
        if best_pair is None:
            return value, mask
        u, v = best_pair
        mask = mask ^ (1 << u) | (1 << v)
        value += best_delta
        _shift_gains(gain, adj[u], -2)
        _shift_gains(gain, adj[v], 2)


def _shift_gains(gain: list[int], neighbours: int, step: int):
    """Add step to the gain of every vertex in the neighbour mask."""
    while neighbours:
        low = neighbours & -neighbours
        gain[low.bit_length() - 1] += step
        neighbours ^= low


def anneal_bisection(g: Graph, k: int, seed: int = 0,
                     lower_cut: int = 0) -> tuple[int, VertexSubset]:
    """Best cut over subsets of size k found by one annealing run.

    Parameters
    ----------
    g : Graph
    k : int
        Subset cardinality, between 1 and n // 2.
    seed : int
        Base seed; each k derives its own stream from it.
    lower_cut : int
        A certified lower bound on every size-k cut.  The run stops as
        soon as its best cut reaches it; the result is the one the full
        run returns.

    Returns
    -------
    (int, VertexSubset)
        Cut value and the subset achieving it.

    Raises
    ------
    RuntimeError
        If the best cut found lies below ``lower_cut``: the bound that
        produced it is unsound.
    """
    if not 1 <= k <= g.n // 2:
        raise ValueError(f"cardinality {k} out of range for n={g.n}")
    rng = random.Random(seed * 1_000_003 + k * 1009)
    n = g.n
    adj = g.adj_masks
    inside = rng.sample(range(n), k)
    mask = 0
    for u in inside:
        mask |= 1 << u
    outside = [v for v in range(n) if not mask >> v & 1]
    value = cut_value(g, VertexSubset(n, mask))
    gain = _gains(g, mask)

    best_value, best_mask = _descend(g, mask, value, gain.copy())

    t0 = (k * k / math.comb(n, 2)) * 2.0 * g.m
    t0 = max(t0, 1e-9)
    floor = TEMPERATURE_FLOOR_FACTOR * t0
    temp = t0
    trials = float(n)
    idle_cycles = 0

    while best_value > lower_cut and idle_cycles < PATIENCE:
        improved = False
        for _ in range(int(round(trials))):
            iu = rng.randrange(k)
            iv = rng.randrange(n - k)
            u = inside[iu]
            v = outside[iv]
            delta = gain[u] - gain[v] + 2 * (adj[u] >> v & 1)
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                mask = mask ^ (1 << u) | (1 << v)
                value += delta
                _shift_gains(gain, adj[u], -2)
                _shift_gains(gain, adj[v], 2)
                inside[iu], outside[iv] = v, u
                polished, polished_mask = _descend(g, mask, value, gain.copy())
                if polished < best_value:
                    best_value = polished
                    best_mask = polished_mask
                    improved = True
                    if best_value <= lower_cut:
                        break
        idle_cycles = 0 if improved else idle_cycles + 1
        temp = max(temp * COOLING, floor)
        trials *= TRIAL_GROWTH
    if best_value < lower_cut:
        raise RuntimeError(
            f"annealed cut {best_value} at k={k} lies below the certified "
            f"lower bound {lower_cut}; the bound is unsound"
        )
    return best_value, VertexSubset(n, best_mask)


def best_expansion_witness(g: Graph, seed: int = 0) -> tuple[Fraction, VertexSubset]:
    """Cheapest expansion ratio cut(S)/|S| seen across all cardinalities.

    Every run stops at the edge connectivity, which no cut undercuts.
    """
    lower_cut = edge_connectivity(g)
    best = None
    witness = None
    for k in range(1, g.n // 2 + 1):
        value, subset = anneal_bisection(g, k, seed=seed, lower_cut=lower_cut)
        ratio = Fraction(value, k)
        if best is None or ratio < best:
            best = ratio
            witness = subset
    return best, witness
