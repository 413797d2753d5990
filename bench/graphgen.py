"""Seeded graph generation for the benchmark corpora.

The benchmark draws its own graphs instead of calling the program's
generators, so a change to ``cheeger.graphs.gnp`` cannot silently change
what is measured.  Graphs are plain ``(n, edges)`` pairs with 0-based
vertices; the caller hands them to ``cheeger.Graph.build``.
"""

from __future__ import annotations

import itertools
import random

GNP_MAX_RESAMPLES = 1000


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Connected G(n, p) sample; resamples until connected."""
    rng = random.Random(seed)
    for _ in range(GNP_MAX_RESAMPLES):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        if _connected(n, edges):
            return edges
    raise ValueError(f"no connected G({n}, {p}) sample in {GNP_MAX_RESAMPLES} draws")


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
