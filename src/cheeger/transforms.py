"""Closed-form max-cut instances for constrained cut problems.

Each builder writes the weights of a max-cut instance on one extra
anchor vertex directly, with the identity

    value(x) = offset - cut(z)        for every assignment x,

where z places variable i on the anchor's side exactly when x_i = 1.
The value is a penalized binary quadratic program that equals the
constrained objective once the penalty weight clears the best known
feasible value.  All arithmetic is in exact integers.

Two instances are built:

* a fixed-cardinality bisection, penalty on (sum x - k)^2, and
* the parametric objective gamma_d * cut - gamma_n * size whose sign at
  the optimum drives the ratio-search iteration, with binary slack
  counters encoding the size window 1 <= sum x <= floor(n/2).

The tests hold both builders to coefficient equality with a generic
route (penalized program, then the standard anchor-vertex reduction)
that lives there as an independent oracle.

Instance files are the graph edge-row format with a weight column, in
the layout Biq Mac reads; ``load_instance`` adds only the checks that
the graph reader leaves to ``Graph.build``: n >= 2, the relaxation cap,
equal endpoints and duplicate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, VertexSubset, cut_value, read_edge_rows, write_edge_rows
from .sdp import DIMENSION_CAP


class TransformError(ValueError):
    """Raised on a malformed max-cut instance file."""


def integer_weights(weights) -> np.ndarray:
    """Max-cut weights read exactly: a square symmetric integer matrix.

    Integer arrays keep their dtype; anything else is read entry by entry
    into Python integers (an ``object`` array), so no weight is rounded.
    Ragged, non-integer, nonzero-diagonal and asymmetric weights raise
    ``ValueError``.
    """
    w = weights
    if not (isinstance(w, np.ndarray) and w.dtype.kind in "iu"):
        rows = [list(row) for row in w]
        try:
            ints = [[int(v) for v in row] for row in rows]
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != rows:
            raise ValueError("weights must be integers")
        w = np.array(ints, dtype=object)
    if w.shape != (len(w), len(w)) or w.diagonal().any():
        raise ValueError("weights must be square with zero diagonal")
    if not (w == w.T).all():
        raise ValueError("weights must be symmetric")
    return w


@dataclass(frozen=True)
class MaxCutInstance:
    """Complete weighted graph on n vertices; integer weights, zero diagonal."""

    n: int
    weights: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, weights) -> "MaxCutInstance":
        """The instance of ``integer_weights(weights)``, at least two vertices."""
        if len(weights) < 2:
            raise ValueError("instance needs at least two vertices")
        w = integer_weights(weights)
        return cls(n=len(w), weights=tuple(map(tuple, w.tolist())))


def dump_instance(inst: MaxCutInstance, comment: str | None = None) -> str:
    """Serialize an instance as ``n m`` then 1-based ``i j w`` rows.

    Only nonzero weights are written; the header's second field counts
    them.  The format is the graph edge-row format with a weight column.
    """
    rows = [(i, j, inst.weights[i][j])
            for i in range(inst.n) for j in range(i + 1, inst.n) if inst.weights[i][j]]
    return write_edge_rows(inst.n, rows, comment)


def load_instance(source) -> MaxCutInstance:
    """Parse the :func:`dump_instance` format from text, bytes, or a stream.

    Instances above ``sdp.DIMENSION_CAP`` vertices, the relaxation
    solver's cap, are refused before any weight storage is allocated.
    """
    n, rows = read_edge_rows(source, weighted=True, error=TransformError)
    if n < 2:
        raise TransformError("instance needs at least two vertices")
    if n > DIMENSION_CAP:
        raise TransformError(f"{n} vertices exceed the relaxation cap {DIMENSION_CAP}")
    weights = [[0] * n for _ in range(n)]
    seen = set()
    for lineno, u, v, w in rows:
        if u == v:
            raise TransformError(f"line {lineno}: equal endpoints {u + 1} {v + 1}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise TransformError(f"line {lineno}: duplicate pair {u + 1} {v + 1}")
        seen.add(pair)
        weights[u][v] = weights[v][u] = w
    return MaxCutInstance.build(weights)


def require_relaxation_fits(order: int):
    """Refuse, before any work, an instance whose node relaxation exceeds
    the solver's cap; ``order`` counts the instance's vertices."""
    if order > DIMENSION_CAP:
        raise ValueError(
            f"the max-cut instance has {order} vertices, over the relaxation "
            f"cap sdp.DIMENSION_CAP = {DIMENSION_CAP}"
        )


@dataclass(frozen=True)
class AnchorReduction:
    """Max-cut form of a constrained cut problem: value = offset - cut exactly.

    The problem is min q cut(S) - p |S| over the subsets S of ``graph``
    with lo <= |S| <= hi, for ``ratio`` = p/q and ``sizes`` = (lo, hi); a
    bisection has ratio 0 and a single size.  Instance vertex 0 is the
    anchor and vertices 1..n are the graph's; any vertices past them are
    slack bits, which decoding drops.
    """

    instance: MaxCutInstance
    offset: int
    graph: Graph
    ratio: Fraction
    sizes: tuple[int, int]

    def decode_subset(self, mask: int) -> VertexSubset:
        """Graph vertex i is in S when instance vertex i + 1 sits on the anchor's side."""
        side = mask >> 1 if mask & 1 else ~mask >> 1
        return VertexSubset(self.graph.n, side & ((1 << self.graph.n) - 1))

    def objective(self, subset: VertexSubset) -> int:
        """q cut(S) - p |S|, the constrained problem's objective."""
        return (self.ratio.denominator * cut_value(self.graph, subset)
                - self.ratio.numerator * subset.size)

    def witness(self, res) -> tuple[int, VertexSubset]:
        """``(offset - res.value, S)`` for an optimal solve, S its decoded subset.

        A size outside ``sizes`` or an objective other than that optimum
        means the reduction and the solver disagree: ``RuntimeError``.
        """
        value = self.offset - res.value
        subset = self.decode_subset(res.mask)
        lo, hi = self.sizes
        if not lo <= subset.size <= hi or self.objective(subset) != value:
            raise RuntimeError(
                f"decoded witness inconsistent with sizes {lo}..{hi} at ratio "
                f"{self.ratio}; the reduction or the solver is broken"
            )
        return value, subset


def bisection_to_maxcut(g: Graph, k: int, cut_upper_bound: int) -> AnchorReduction:
    """Closed-form max-cut instance for the cardinality-k bisection.

    Anchor weights are p(n - 2k) on every vertex, p - 1 across original
    edges and p across non-edges, with p = 4u + 1; the offset is
    p(n - k)^2.  Every optimal side containing the anchor holds exactly
    k + 1 vertices.
    """
    if not 1 <= k <= g.n // 2:
        raise ValueError(f"cardinality {k} out of range for n={g.n}")
    if cut_upper_bound < 1:
        raise ValueError("cut upper bound must be at least 1 on a connected graph")
    n = g.n
    p = 4 * cut_upper_bound + 1
    adj = g.adjacency_matrix()
    weights = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        weights[0][i + 1] = weights[i + 1][0] = p * (n - 2 * k)
        for j in range(i + 1, n):
            w = p - 1 if adj[i][j] else p
            weights[i + 1][j + 1] = weights[j + 1][i + 1] = w
    return AnchorReduction(
        instance=MaxCutInstance.build(weights),
        offset=p * (n - k) * (n - k),
        graph=g,
        ratio=Fraction(0),
        sizes=(k, k),
    )


def slack_weights(n: int) -> tuple[int, ...]:
    """Binary counter weights (1, 2, 4, ...) covering sizes up to floor(n/2).

    The counter must reach s - 1 where s = floor(n/2); bit_length of s - 1
    gives the number of weights.  For s = 1 the window is the single point
    {1} and no counter bits are needed.
    """
    s = n // 2
    bits = (s - 1).bit_length()
    return tuple(1 << i for i in range(bits))


def _ratio_parts(gamma: Fraction) -> tuple[int, int]:
    if gamma < 0:
        raise ValueError("the ratio parameter must be nonnegative")
    return gamma.numerator, gamma.denominator


def penalty_weight(g: Graph, gamma: Fraction) -> int:
    """Sigma clearing every feasible objective value at ratio gamma.

    Any assignment violating a size constraint pays at least sigma, and
    sigma = gamma_n * n + gamma_d * min_degree + 1 puts that floor above
    gamma_d * mincut >= the feasible optimum, so the penalized minimum
    always equals the constrained one, for every nonnegative gamma.
    """
    gn, gd = _ratio_parts(gamma)
    return gn * g.n + gd * min(g.degrees) + 1


def dinkelbach_to_maxcut(g: Graph, gamma: Fraction) -> AnchorReduction:
    """Closed-form max-cut instance for the ratio objective at gamma."""
    gn, gd = _ratio_parts(gamma)
    n = g.n
    s = n // 2
    v = slack_weights(n)
    nb = len(v)
    d = n + 2 * nb
    sigma = penalty_weight(g, gamma)
    cover = 1 << nb  # 2^(nb), one past the counter's reach

    adj = g.adjacency_matrix()
    weights = [[0] * (d + 1) for _ in range(d + 1)]

    def put(a, b, w):
        weights[a][b] = weights[b][a] = w

    for u in range(n):
        put(0, 1 + u, 2 * sigma * (n - 1 - s) - gn)
        for w_ in range(u + 1, n):
            put(1 + u, 1 + w_, 2 * sigma - (gd if adj[u][w_] else 0))
        for i, vi in enumerate(v):
            put(1 + u, 1 + n + i, -sigma * vi)
            put(1 + u, 1 + n + nb + i, sigma * vi)
    for i, vi in enumerate(v):
        put(0, 1 + n + i, sigma * vi * (cover - n + 1))
        put(0, 1 + n + nb + i, sigma * vi * (cover - 1 + n - 2 * s))
        for j in range(i + 1, nb):
            vj = v[j]
            put(1 + n + i, 1 + n + j, sigma * vi * vj)
            put(1 + n + nb + i, 1 + n + nb + j, sigma * vi * vj)

    offset = -gn * n + sigma * (
        2 * cover * (cover - s - 1)
        + 2 * n * n
        - 2 * n
        + 1
        + s * s
        - 2 * s * n
        + 2 * s
    )
    return AnchorReduction(instance=MaxCutInstance.build(weights), offset=offset,
                           graph=g, ratio=Fraction(gn, gd), sizes=(1, s))
