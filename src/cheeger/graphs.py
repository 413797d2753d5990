"""Graph types, file I/O, generators, and exhaustive reference solvers.

Vertices are 0-based internally; both file formats are 1-based.  Graphs are
validated on construction (simple, undirected, connected, n >= 3) and are
immutable afterwards.  The edge-row format (``n m`` header, then ``i j``
rows) is read and written by ``read_edge_rows`` and ``write_edge_rows``,
which the max-cut instance files share with a weight column appended.

The brute_force_* functions enumerate vertex subsets directly and exist to
check every other component against ground truth on small instances.  They
refuse to run above ``ENUMERATION_GUARD`` vertices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

# Largest n the exhaustive solvers accept.
ENUMERATION_GUARD = 24

# Generator retry budget for connected G(n,p) samples.
GNP_MAX_RESAMPLES = 1000


class GraphFormatError(ValueError):
    """Malformed graph input (bad syntax, self loop, duplicate, disconnected...)."""


@dataclass(frozen=True)
class VertexSubset:
    """A subset of ``range(n)`` stored as a bitmask.

    The empty and full subsets are representable; operations that need a
    proper nonempty subset (cut values) validate on use.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("subset needs a positive ground-set size")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("mask outside ground set")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSubset":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"vertex {i} outside range(0, {n})")
            if mask >> i & 1:
                raise ValueError(f"vertex {i} listed twice")
            mask |= 1 << i
        return cls(n, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def membership(self) -> tuple[int, ...]:
        """0/1 indicator vector as a tuple."""
        return tuple(self.mask >> i & 1 for i in range(self.n))


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph.

    Use :meth:`Graph.build` rather than the raw constructor; it normalises
    the edge list and checks all structural invariants.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj_masks: tuple[int, ...]

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 3:
            raise GraphFormatError(f"need at least 3 vertices, got {n}")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) outside range(0, {n})")
            if u == v:
                raise GraphFormatError(f"self loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphFormatError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        # Checked before any per-vertex storage, so memory follows the
        # edge list rather than the announced vertex count.
        if len(norm) < n - 1:
            raise GraphFormatError(
                f"graph is not connected: {len(norm)} edges cannot span {n} vertices"
            )
        masks = [0] * n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        g = cls(n=n, edges=tuple(sorted(norm)), adj_masks=tuple(masks))
        if not g.is_connected():
            raise GraphFormatError("graph is not connected")
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        # Computed once per graph; the instance dict sits outside the
        # dataclass fields, so equality and hashing are unaffected.
        return tuple(mask.bit_count() for mask in self.adj_masks)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = frontier
            while v:
                low = v & -v
                nxt |= self.adj_masks[low.bit_length() - 1]
                v ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a dense float array."""
    a = g.adjacency_matrix()
    return np.diag(a.sum(axis=1)) - a


def cut_value(g: Graph, s: VertexSubset) -> int:
    """Number of edges leaving ``s``.

    Requires a proper nonempty subset of the vertex set.
    """
    if s.n != g.n:
        raise ValueError("subset ground set does not match graph")
    if s.size == 0 or s.size == g.n:
        raise ValueError("cut is defined for proper nonempty subsets only")
    inv = ~s.mask
    total = 0
    rem = s.mask
    while rem:
        low = rem & -rem
        total += (g.adj_masks[low.bit_length() - 1] & inv).bit_count()
        rem ^= low
    return total


def expansion(g: Graph, s: VertexSubset) -> Fraction:
    """Cut ratio |cut(S)| / |S| of a subset with 1 <= |S| <= n/2."""
    if not 1 <= s.size <= g.n // 2:
        raise ValueError(f"subset size {s.size} outside [1, {g.n // 2}]")
    return Fraction(cut_value(g, s), s.size)


def edge_connectivity(g: Graph) -> int:
    """Edge connectivity: the fewest edges of any cut, over all subset sizes.

    Every cut separates vertex 0 from some vertex t, so the value is the
    minimum over t of the number of edge-disjoint 0-t paths (Menger).
    Each count grows by unit augmenting paths and stops at the running
    minimum, which starts at the minimum degree, the cut around one
    vertex.  Cost O(n * delta * m) for minimum degree delta.
    """
    adj = g.adj_masks
    best = min(g.degrees)
    for t in range(1, g.n):
        # out[u] holds v while one unit flows from u to v; an edge never
        # carries flow both ways, so u -> v is residual unless v is in out[u].
        out = [0] * g.n
        flow = 0
        while flow < best and _augment(adj, out, t):
            flow += 1
        best = flow
    return best


def _augment(adj: Sequence[int], out: list[int], t: int) -> bool:
    """Push one unit from vertex 0 to t along a shortest residual path."""
    parent = [0] * len(adj)
    seen = 1
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            free = adj[u] & ~out[u] & ~seen
            seen |= free
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                parent[v] = u
                nxt.append(v)
            if seen >> t & 1:
                v = t
                while v:
                    u = parent[v]
                    if out[v] >> u & 1:
                        out[v] ^= 1 << u
                    else:
                        out[u] |= 1 << v
                    v = u
                return True
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# parsing and serialisation

def _tokenize(text: str, skip_comments: str) -> list[tuple[int, list[str]]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(skip_comments):
            continue
        rows.append((lineno, line.split()))
    return rows


def _parse_int(tok: str, lineno: int, what: str, error=GraphFormatError) -> int:
    try:
        return int(tok)
    except ValueError:
        raise error(f"line {lineno}: bad {what} {tok!r}") from None


def _parse_row(toks: list[str], lineno: int, n: int, error) -> tuple[int, ...]:
    """Endpoints in 1..n, then any weights, as a row with 0-based endpoints."""
    u, v, *w = (_parse_int(t, lineno, "weight" if c > 1 else "endpoint", error)
                for c, t in enumerate(toks))
    if not (1 <= u <= n and 1 <= v <= n):
        raise error(f"line {lineno}: endpoint outside 1..{n}")
    return u - 1, v - 1, *w


def _decode(source: str | bytes | IO) -> str:
    if hasattr(source, "read"):
        source = source.read()
    return source.decode("utf-8") if isinstance(source, bytes) else source


def read_edge_rows(source: str | bytes | IO, weighted: bool = False,
                   error: type[ValueError] = GraphFormatError):
    """Parse the edge-row format from text, bytes, or a readable stream.

    A header ``n m`` is followed by ``m`` rows ``i j``, or ``i j w`` when
    ``weighted``, with 1-based endpoints in 1..n; ``#`` lines are
    comments.  Returns ``n`` and one ``(lineno, u, v, *w)`` tuple per row,
    endpoints 0-based.  Malformed input raises ``error``.
    """
    rows = _tokenize(_decode(source), "#")
    if not rows:
        raise error("empty input")
    lineno, head = rows[0]
    if len(head) != 2:
        raise error(f"line {lineno}: expected header 'n m'")
    n = _parse_int(head[0], lineno, "vertex count", error)
    m = _parse_int(head[1], lineno, "edge count", error)
    cols = "i j w" if weighted else "i j"
    out = []
    for lineno, toks in rows[1:]:
        if len(toks) != len(cols.split()):
            raise error(f"line {lineno}: expected '{cols}'")
        out.append((lineno, *_parse_row(toks, lineno, n, error)))
    if len(out) != m:
        raise error(f"header announces {m} edges, found {len(out)}")
    return n, out


def write_edge_rows(n: int, rows: Sequence[tuple[int, ...]], comment: str | None = None) -> str:
    """Render ``(u, v, *w)`` rows, endpoints 0-based, in the edge-row format."""
    lines = [f"# {comment}"] if comment else []
    lines.append(f"{n} {len(rows)}")
    lines.extend(" ".join(map(str, (u + 1, v + 1, *w))) for u, v, *w in rows)
    return "\n".join(lines) + "\n"


def _parse_dimacs(text: str) -> Graph:
    n = None
    m = None
    edges = []
    for lineno, toks in _tokenize(text, "c"):
        kind = toks[0]
        if kind == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: repeated problem line")
            if len(toks) != 4 or toks[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {lineno}: expected 'p edge n m'")
            n = _parse_int(toks[2], lineno, "vertex count")
            m = _parse_int(toks[3], lineno, "edge count")
        elif kind == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(toks) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e i j'")
            edges.append(_parse_row(toks[1:], lineno, n, GraphFormatError))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {kind!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if len(edges) != m:
        raise GraphFormatError(f"problem line announces {m} edges, found {len(edges)}")
    return Graph.build(n, edges)


def load_graph(source: str | bytes | IO, fmt: str = "edge-list") -> Graph:
    """Parse a graph from text, bytes, or a readable stream.

    ``fmt`` is ``"edge-list"`` (header ``n m`` then ``i j`` rows, ``#``
    comments) or ``"dimacs"`` (``p edge n m`` and ``e i j`` records).
    """
    source = _decode(source)
    if fmt == "edge-list":
        n, rows = read_edge_rows(source)
        return Graph.build(n, [(u, v) for _, u, v in rows])
    if fmt == "dimacs":
        return _parse_dimacs(source)
    raise ValueError(f"unknown format {fmt!r}")


def sniff_format(text: str) -> str:
    """Guess the file format: a 'p' problem line means DIMACS."""
    for _, toks in _tokenize(text, "#"):
        return "dimacs" if toks[0] in ("p", "c", "e") else "edge-list"
    return "edge-list"


def dump_graph(g: Graph, comment: str | None = None) -> str:
    return write_edge_rows(g.n, g.edges, comment)


# ---------------------------------------------------------------------------
# generators

def complete(n: int) -> Graph:
    return Graph.build(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def hypercube(d: int) -> Graph:
    if d < 2:
        raise ValueError("hypercube needs d >= 2 to have 3 or more vertices")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph.build(n, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Connected Erdos-Renyi sample; resamples up to GNP_MAX_RESAMPLES times."""
    if n < 3:
        raise ValueError("gnp needs n >= 3")
    if not 0.0 < p <= 1.0:
        raise ValueError("edge probability must be in (0, 1]")
    rng = random.Random(seed)
    for _ in range(GNP_MAX_RESAMPLES):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        try:
            return Graph.build(n, edges)
        except GraphFormatError:
            continue
    raise GraphFormatError(
        f"no connected G({n}, {p}) sample within {GNP_MAX_RESAMPLES} attempts"
    )


_FAMILIES = {
    "complete": complete,
    "cycle": cycle,
    "path": path,
    "hypercube": hypercube,
    "gnp": gnp,
}


def generate(family: str, *args) -> Graph:
    """Dispatch by family name: complete, cycle, path, hypercube, gnp."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return builder(*args)


# ---------------------------------------------------------------------------
# exhaustive reference solvers

def brute_force_bisection(g: Graph, k: int) -> tuple[int, VertexSubset]:
    """Minimum cut over subsets of size exactly k, by enumeration.

    Ties are broken by the lexicographically smallest membership vector.
    """
    if g.n > ENUMERATION_GUARD:
        raise ValueError(f"refusing exhaustive search on n={g.n} > {ENUMERATION_GUARD}")
    if not 1 <= k <= g.n // 2:
        raise ValueError(f"k={k} outside [1, {g.n // 2}]")
    best = None
    for combo in itertools.combinations(range(g.n), k):
        mask = sum(1 << v for v in combo)
        cut = sum((g.adj_masks[v] & ~mask).bit_count() for v in combo)
        key = (cut, tuple(mask >> i & 1 for i in range(g.n)), mask)
        if best is None or key < best:
            best = key
    return best[0], VertexSubset(g.n, best[2])


def _least_over_cardinalities(g: Graph, score) -> tuple:
    """Least (score(cut, k), membership) over each size's minimum cut."""
    rows = []
    for k in range(1, g.n // 2 + 1):
        cut, subset = brute_force_bisection(g, k)
        rows.append((score(cut, k), subset.membership(), subset))
    value, _, subset = min(rows)
    return value, subset


def brute_force_h(g: Graph) -> tuple[Fraction, VertexSubset]:
    """Exact edge expansion min |cut(S)|/|S| over 1 <= |S| <= n/2, by enumeration."""
    return _least_over_cardinalities(g, Fraction)


def brute_force_mincut(g: Graph) -> tuple[int, VertexSubset]:
    """Global minimum cut over proper nonempty subsets, by enumeration."""
    return _least_over_cardinalities(g, lambda cut, k: cut)
