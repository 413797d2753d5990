"""Both exact methods against brute-force enumeration on random graphs."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger import maxcut
from cheeger.dinkelbach import dinkelbach_solve
from cheeger.graphs import Graph, VertexSubset, brute_force_h, expansion
from cheeger.split_bound import split_and_bound


@st.composite
def _connected_graphs(draw, max_n=10):
    """A random spanning tree plus any subset of the remaining pairs."""
    n = draw(st.integers(3, max_n))
    order = draw(st.permutations(range(n)))
    edges = {
        tuple(sorted((order[v], order[draw(st.integers(0, v - 1))]))) for v in range(1, n)
    }
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    edges.update(pair for pair, kept in zip(others, keep) if kept)
    return Graph.build(n, sorted(edges))


def _assert_exact(g, rep):
    expected, _ = brute_force_h(g)
    assert rep.status == "solved"
    assert rep.lower == rep.upper == expected
    assert expansion(g, VertexSubset.from_indices(g.n, rep.witness)) == expected


@settings(max_examples=25, deadline=None)
@given(_connected_graphs(), st.integers(0, 3))
def test_split_and_bound_matches_brute_force(g, seed):
    _assert_exact(g, split_and_bound(g, seed=seed))


@settings(max_examples=25, deadline=None)
@given(_connected_graphs(), st.integers(0, 3))
def test_dinkelbach_matches_brute_force(g, seed):
    _assert_exact(g, dinkelbach_solve(g, seed=seed))


# At n <= 10 every max-cut subproblem fits the default leaf and is closed
# by enumeration; 4-vertex leaves send both methods through node SDP
# bounds, rounding and branching.  hypothesis rejects function-scoped
# fixtures, hence patch.object instead of monkeypatch.


@settings(max_examples=25, deadline=None)
@given(_connected_graphs(), st.integers(0, 3))
def test_split_and_bound_matches_brute_force_with_small_leaves(g, seed):
    with patch.object(maxcut, "LEAF_SIZE", 4):
        _assert_exact(g, split_and_bound(g, seed=seed))


@settings(max_examples=25, deadline=None)
@given(_connected_graphs(), st.integers(0, 3))
def test_dinkelbach_matches_brute_force_with_small_leaves(g, seed):
    with patch.object(maxcut, "LEAF_SIZE", 4):
        _assert_exact(g, dinkelbach_solve(g, seed=seed))
