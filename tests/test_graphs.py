import io
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger.graphs import (
    ENUMERATION_GUARD,
    Graph,
    GraphFormatError,
    VertexSubset,
    brute_force_bisection,
    brute_force_h,
    brute_force_mincut,
    complete,
    cut_value,
    cycle,
    dump_graph,
    edge_connectivity,
    expansion,
    generate,
    gnp,
    hypercube,
    laplacian,
    load_graph,
    path,
    sniff_format,
)


def star(leaves: int) -> Graph:
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# --- construction and validation -------------------------------------------

def test_build_normalises_and_sorts_edges():
    g = Graph.build(4, [(2, 0), (3, 2), (1, 0), (2, 1)])
    assert g.edges == ((0, 1), (0, 2), (1, 2), (2, 3))
    assert g.m == 4
    assert g.degrees == (2, 2, 3, 1)


def test_build_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        Graph.build(2, [(0, 1)])
    with pytest.raises(GraphFormatError):
        Graph.build(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(GraphFormatError):
        Graph.build(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphFormatError):
        Graph.build(3, [(0, 3), (1, 2)])
    # triangle plus isolated vertex is disconnected
    with pytest.raises(GraphFormatError):
        Graph.build(4, [(0, 1), (1, 2), (0, 2)])


def test_too_few_edges_rejected_before_per_vertex_storage():
    # A 10-byte file announcing two million vertices must not allocate
    # per-vertex state: fewer than n - 1 edges cannot connect n vertices.
    for text, fmt in (("2000000 0\n", "edge-list"),
                      ("p edge 2000000 1\ne 1 2\n", "dimacs")):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="not connected"):
                load_graph(text, fmt=fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (fmt, peak)
    with pytest.raises(GraphFormatError, match="2 edges cannot span 4"):
        Graph.build(4, [(0, 1), (2, 3)])
    # n - 1 edges are enough to pass the count, a tree then builds.
    assert Graph.build(4, iter([(0, 1), (1, 2), (2, 3)])).m == 3


def test_degrees_are_cached_without_touching_identity():
    a = gnp(10, 0.4, seed=3)
    b = gnp(10, 0.4, seed=3)
    assert a.degrees is a.degrees
    assert a.degrees == tuple(mask.bit_count() for mask in a.adj_masks)
    # b has not read its degrees yet; equality and hashing must only see
    # the dataclass fields, not the cache.
    assert a == b
    assert hash(a) == hash(b)
    assert b.degrees == a.degrees
    assert a == b and hash(a) == hash(b)


def test_vertex_subset_basics():
    s = VertexSubset.from_indices(5, [0, 3])
    assert s.size == 2
    assert s.indices() == (0, 3)
    assert s.membership() == (1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        VertexSubset.from_indices(5, [0, 0])
    with pytest.raises(ValueError):
        VertexSubset.from_indices(5, [5])


# --- cut values and Laplacian ----------------------------------------------

def test_cut_value_examples():
    p4 = path(4)
    assert cut_value(p4, VertexSubset.from_indices(4, [0])) == 1
    assert cut_value(p4, VertexSubset.from_indices(4, [0, 1])) == 1
    assert cut_value(p4, VertexSubset.from_indices(4, [1])) == 2
    c4 = cycle(4)
    assert cut_value(c4, VertexSubset.from_indices(4, [0, 1])) == 2
    assert cut_value(c4, VertexSubset.from_indices(4, [0, 2])) == 4


def test_cut_value_rejects_trivial_sides():
    g = cycle(4)
    with pytest.raises(ValueError):
        cut_value(g, VertexSubset(4, 0))
    with pytest.raises(ValueError):
        cut_value(g, VertexSubset.from_indices(4, [0, 1, 2, 3]))


def test_laplacian_p3_matrix():
    lap = laplacian(path(3))
    assert np.array_equal(lap, np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]]))


def test_laplacian_row_sums_zero_and_c4_spectrum():
    lap = laplacian(cycle(4))
    assert np.allclose(lap.sum(axis=1), 0)
    assert np.allclose(np.linalg.eigvalsh(lap), [0, 2, 2, 4])


def test_cut_matches_laplacian_quadratic_form():
    rng = random.Random(7)
    for _ in range(25):
        g = gnp(8, 0.45, rng.randrange(10**6))
        lap = laplacian(g)
        mask = rng.randrange(1, (1 << 8) - 1)
        s = VertexSubset(8, mask)
        chi = np.array(s.membership(), dtype=float)
        assert cut_value(g, s) == round(chi @ lap @ chi)


def test_expansion_requires_small_side():
    g = cycle(6)
    with pytest.raises(ValueError):
        expansion(g, VertexSubset.from_indices(6, [0, 1, 2, 3]))
    assert expansion(g, VertexSubset.from_indices(6, [0, 1, 2])) == Fraction(2, 3)


# --- parsing ----------------------------------------------------------------

EDGE_LIST_C4 = """\
# four cycle
4 4
1 2
2 3
3 4
1 4
"""

DIMACS_C4 = """\
c four cycle
p edge 4 4
e 1 2
e 2 3
e 3 4
e 1 4
"""


def test_load_edge_list_and_dimacs_agree():
    g1 = load_graph(EDGE_LIST_C4)
    g2 = load_graph(DIMACS_C4, fmt="dimacs")
    assert g1.edges == g2.edges == cycle(4).edges


def test_load_accepts_stream_and_bytes():
    assert load_graph(io.StringIO(EDGE_LIST_C4)).n == 4
    assert load_graph(EDGE_LIST_C4.encode()).n == 4


def test_sniff_format():
    assert sniff_format(EDGE_LIST_C4) == "edge-list"
    assert sniff_format(DIMACS_C4) == "dimacs"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph("3 3\n1 x\n2 3\n1 3\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph("3 3\n1 2\n2 5\n1 3\n")
    with pytest.raises(GraphFormatError, match="announces"):
        load_graph("3 3\n1 2\n2 3\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph("c x\np edge 3 2\ne 1 2 3\ne 2 3\n", fmt="dimacs")
    with pytest.raises(GraphFormatError):
        load_graph("", fmt="edge-list")


def test_dump_round_trip():
    g = gnp(9, 0.4, 3)
    assert load_graph(dump_graph(g)).edges == g.edges


# --- generators -------------------------------------------------------------

def test_generator_shapes():
    assert complete(4).m == 6
    assert cycle(6).m == 6
    assert path(5).m == 4
    h3 = hypercube(3)
    assert (h3.n, h3.m) == (8, 12)
    assert set(h3.degrees) == {3}
    h2 = hypercube(2)
    assert (h2.n, h2.m) == (4, 4)
    assert set(h2.degrees) == {2}


def test_generate_dispatch():
    assert generate("complete", 5).m == 10
    assert generate("gnp", 8, 0.5, 1).n == 8
    with pytest.raises(ValueError):
        generate("wheel", 5)


def test_gnp_is_deterministic_and_connected():
    g1 = gnp(10, 0.4, seed=1)
    g2 = gnp(10, 0.4, seed=1)
    assert g1.edges == g2.edges
    assert g1.is_connected()
    assert gnp(10, 0.4, seed=2).edges != g1.edges


def test_gnp_refuses_fewer_than_three_vertices_before_drawing():
    with pytest.raises(ValueError, match=r"^gnp needs n >= 3$"):
        gnp(2, 0.8, seed=2)


def test_gnp_gives_up_eventually():
    with pytest.raises(GraphFormatError):
        gnp(30, 0.01, seed=0)


# --- exhaustive solvers -----------------------------------------------------

def test_brute_force_h_known_values():
    assert brute_force_h(complete(4))[0] == 2
    assert brute_force_h(complete(5))[0] == 3
    assert brute_force_h(cycle(6))[0] == Fraction(2, 3)
    assert brute_force_h(cycle(5))[0] == 1
    assert brute_force_h(path(4))[0] == Fraction(1, 2)
    assert brute_force_h(star(5))[0] == 1
    assert brute_force_h(hypercube(3))[0] == 1


def test_brute_force_h_witness_is_consistent():
    for g in (cycle(6), path(5), star(4), gnp(9, 0.35, 11)):
        val, s = brute_force_h(g)
        assert expansion(g, s) == val


def test_brute_force_bisection_known_values():
    assert brute_force_bisection(complete(5), 2)[0] == 6
    assert brute_force_bisection(cycle(6), 2)[0] == 2
    assert brute_force_bisection(cycle(6), 3)[0] == 2
    assert brute_force_bisection(path(4), 2)[0] == 1
    assert brute_force_bisection(hypercube(3), 4)[0] == 4


def test_brute_force_bisection_rejects_bad_k():
    with pytest.raises(ValueError):
        brute_force_bisection(cycle(6), 0)
    with pytest.raises(ValueError):
        brute_force_bisection(cycle(6), 4)


def test_brute_force_mincut_known_values():
    assert brute_force_mincut(cycle(6))[0] == 2
    assert brute_force_mincut(path(5))[0] == 1
    assert brute_force_mincut(complete(4))[0] == 3


def _two_cliques_and_a_bridge():
    """Two K4 joined by one edge: minimum degree 3, edge connectivity 1."""
    left = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    right = [(u + 4, v + 4) for u, v in left]
    return Graph.build(8, left + right + [(3, 4)])


@pytest.mark.parametrize("g, value", [
    (cycle(3), 2), (cycle(17), 2), (path(3), 1), (path(12), 1),
    (complete(3), 2), (complete(9), 8), (hypercube(2), 2), (hypercube(5), 5),
    (_two_cliques_and_a_bridge(), 1),
], ids=["C3", "C17", "P3", "P12", "K3", "K9", "Q2", "Q5", "bridge"])
def test_edge_connectivity_known_values(g, value):
    assert edge_connectivity(g) == value


@st.composite
def _connected_graphs(draw):
    """A connected graph on 3..12 vertices: a random tree plus extra edges."""
    n = draw(st.integers(3, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, keep in zip(pairs, extra) if keep}
    return Graph.build(n, edges)


@settings(max_examples=150, deadline=None)
@given(_connected_graphs())
def test_edge_connectivity_matches_brute_force(g):
    assert edge_connectivity(g) == brute_force_mincut(g)[0]


def test_h_is_min_over_bisection_ratios():
    for seed in range(5):
        g = gnp(9, 0.4, seed=seed + 100)
        h, _ = brute_force_h(g)
        per_k = min(
            Fraction(brute_force_bisection(g, k)[0], k) for k in range(1, g.n // 2 + 1)
        )
        assert h == per_k


def test_h_invariant_under_relabeling():
    rng = random.Random(5)
    g = gnp(9, 0.45, seed=17)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert brute_force_h(g)[0] == brute_force_h(relabeled)[0]


def test_enumeration_guard():
    # The guard is checked before any subset is drawn, so this is instant.
    g = cycle(ENUMERATION_GUARD + 1)
    with pytest.raises(ValueError, match="refusing exhaustive search"):
        brute_force_h(g)
    with pytest.raises(ValueError, match="refusing exhaustive search"):
        brute_force_mincut(g)
    with pytest.raises(ValueError, match="refusing exhaustive search"):
        brute_force_bisection(g, 1)
