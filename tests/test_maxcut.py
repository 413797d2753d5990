"""Tests for the branch-and-bound max-cut solver."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger import maxcut
from cheeger.graphs import complete, cycle, path
from cheeger.maxcut import (
    Budget,
    contract_pair,
    enumerate_maxcut,
    gw_round,
    improve_cut,
    solve_maxcut,
)
from cheeger.transforms import (
    MaxCutInstance,
    bisection_to_maxcut,
    dinkelbach_to_maxcut,
)

from conftest import cut_weight


def _instance_from_graph(g):
    w = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        w[u][v] = w[v][u] = 1
    return MaxCutInstance.build(w)


def _random_instance(rng, n, lo=-10, hi=10, density=0.7):
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w[i][j] = w[j][i] = rng.randint(lo, hi)
    return MaxCutInstance.build(w)


def _above_leaf(extra, seed=0):
    """Random weights on ``extra`` vertices more than the leaf size."""
    return _random_instance(random.Random(seed), maxcut.LEAF_SIZE + extra)


def _width(weights):
    return sum(abs(w) for row in weights for w in row) // 2


def _node_array(weights):
    """Weights as the search holds them: int64 below its limit, else Python ints."""
    dtype = np.int64 if _width(weights) < maxcut.ENUM_INT64_LIMIT else object
    return np.array(weights, dtype=dtype)


def _optimum(inst):
    """Exact max cut one vertex past the enumeration cap, by both folds of vertex 1."""
    if inst.n <= 24:
        return enumerate_maxcut(inst)[0]
    folds = (contract_pair(_node_array(inst.weights), 1, rel) for rel in (1, -1))
    return max(enumerate_maxcut(w)[0] + shift for w, shift in folds)


def _brute_maxcut(inst):
    best = 0
    for mask in range(1 << (inst.n - 1)):
        best = max(best, cut_weight(inst, mask))
    return best


# -- local helpers ---------------------------------------------------------


def test_improve_cut_reaches_local_optimum():
    # Triangle with weights 3, 2, -1: the single vertex 0 gives cut 5,
    # which one steepest flip from the all-equal start already finds.
    w = np.array(((0, 3, 2), (3, 0, -1), (2, -1, 0)))
    value, signs = improve_cut(w, [1, 1, 1])
    assert value == 5
    assert signs[0] != signs[1] and signs[1] == signs[2]
    again, _ = improve_cut(w, signs)
    assert again == value


def test_improve_cut_all_negative_keeps_empty_side():
    w = np.array(((0, -4), (-4, 0)))
    value, _ = improve_cut(w, [1, 1])
    assert value == 0


def test_gw_round_recovers_rank_one_point():
    # s s^T is also the point of -s, which keeps vertex 0 at +1.
    signs = np.array([-1, 1, -1, 1, -1])
    x = np.outer(signs, signs).astype(float)
    rng = np.random.default_rng(7)
    candidates = gw_round(x, rng)
    assert candidates.shape == (maxcut.GW_ROUNDS, 5)
    assert (candidates == -signs).all()


def test_enumerate_matches_brute_force():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(3, 9)
        inst = _random_instance(rng, n)
        value, mask = enumerate_maxcut(inst.weights)
        assert value == _brute_maxcut(inst)
        assert cut_weight(inst, mask) == value
        assert not mask & 1


def test_enumerate_refuses_sizes_outside_its_range():
    # An empty matrix would otherwise reach the sign tables with -1 bits.
    for weights in ([], [[0] * 25 for _ in range(25)]):
        with pytest.raises(ValueError, match=f"1 to 24 vertices, got {len(weights)}"):
            enumerate_maxcut(weights)


@pytest.mark.parametrize("weights, message", [
    ([[0, 1, 1], [1, 0, 1], [1, 1, 5]], "zero diagonal"),
    ([[0, 1], [1]], "zero diagonal"),
    ([1, 2], "zero diagonal"),
    ([[0, 1], [3, 0]], "symmetric"),
    ([[0, 1 << 61], [(1 << 61) + 1, 0]], "symmetric"),
    ([[0, (1 << 63) + 1], [1 << 63, 0]], "symmetric"),
    ([[0, 1.5, 1], [1.5, 0, 1], [1, 1, 0]], "integers"),
], ids=["diagonal", "ragged", "flat", "asymmetric", "asymmetric-wide", "asymmetric-past-int64",
        "non-integer"])
def test_enumerate_refuses_malformed_weights(weights, message):
    # The same weights MaxCutInstance.build refuses; enumeration would
    # otherwise read only the upper triangle and return a wrong cut.
    with pytest.raises(ValueError, match=message):
        MaxCutInstance.build(weights)
    with pytest.raises(ValueError, match=message):
        enumerate_maxcut(weights)


def test_enumerate_reads_weights_past_int64_exactly():
    # 2^63 + 1 fits no int64, and read as a float it rounds to 2^63.
    weights = [[0, (1 << 63) + 1], [(1 << 63) + 1, 0]]
    assert enumerate_maxcut(weights) == ((1 << 63) + 1, 2)
    assert enumerate_maxcut(MaxCutInstance.build(weights)) == ((1 << 63) + 1, 2)


def test_contraction_preserves_maxcut():
    # Folding any vertex onto the anchor in both orientations splits the
    # assignment space in two, so the parent optimum is the better child.
    # Scaled by 2^61 the node array holds Python integers.
    rng = random.Random(17)
    for _ in range(3):
        n = rng.randint(4, 8)
        inst = _random_instance(rng, n, density=0.9)
        pick = rng.randint(1, n - 1)
        for shift, dtype in ((0, np.int64), (61, object)):
            weights = _node_array(_scaled(inst.weights, shift))
            assert weights.dtype == dtype
            parent, _ = enumerate_maxcut(weights)
            best = None
            for rel in (1, -1):
                folded, const = contract_pair(weights, pick, rel)
                assert folded.dtype == dtype and type(const) is int
                value = enumerate_maxcut(folded)[0] + const
                best = value if best is None else max(best, value)
            assert best == parent


def test_enumerate_wide_weights_agree_with_scaled_instance():
    # Scaling every weight by 2**50 overflows the vectorized path and
    # forces exact integer evaluation; the optimum must scale along.
    rng = random.Random(3)
    inst = _random_instance(rng, 8)
    value, mask = enumerate_maxcut(inst.weights)
    factor = 1 << 50
    wide = tuple(tuple(w * factor for w in row) for row in inst.weights)
    wide_value, wide_mask = enumerate_maxcut(wide)
    assert wide_value == value * factor
    assert wide_mask == mask


def _scaled(weights, shift):
    return [[w << shift for w in row] for row in weights]


def _shift_into(limit, max_w, n):
    """Least shift that lifts max_w n^2 to at least ``limit``."""
    return max(0, limit.bit_length() - (max_w * n * n).bit_length())


def test_enumeration_tiers_agree_up_to_the_leaf_size():
    # W runs in float32; W 2^a is lifted into the float64 tier, W 2^b into
    # the int64 tier and W 2^c into the Python-integer tier.  Same mask,
    # values scaled exactly.  The Python tier is checked up to the wide
    # leaf, the largest order a search enumerates in it; one call takes
    # 0.3 s at 19 vertices and 4 s at 23.
    rng = random.Random(2)
    for n in range(2, maxcut.LEAF_SIZE + 1):
        w = [list(row) for row in _random_instance(rng, n).weights]
        w[0][1] = w[1][0] = max_w = 10
        assert maxcut._enum_dtype(max_w, n) is np.float32
        value, mask = enumerate_maxcut(w)
        tiers = [(np.float64, _shift_into(maxcut.ENUM_SINGLE_LIMIT, max_w, n)),
                 (np.int64, _shift_into(maxcut.ENUM_FLOAT_LIMIT, max_w, n))]
        if n <= maxcut.WIDE_LEAF_SIZE:
            tiers.append((object, _shift_into(maxcut.ENUM_INT64_LIMIT, max_w, n)))
        for dtype, shift in tiers:
            assert maxcut._enum_dtype(max_w << shift, n) is dtype
            assert enumerate_maxcut(_scaled(w, shift)) == (value << shift, mask), (n, dtype)


@pytest.mark.parametrize("above", [0, 1])
def test_enumeration_is_exact_at_the_float_bound(above):
    # 16^2 max|w| is 2^53 - 256 at max|w| = 2^45 - 1, the widest weight
    # the float64 tier takes; one unit more moves it to int64.  Weights
    # within 2 of max|w| keep low bits set, so any rounding would show,
    # and with every weight -max|w| the uncut side reaches quad = -n(n-1)
    # max|w|, the largest sum of all.
    max_w = (1 << 45) - 1 + above
    assert maxcut._enum_dtype(max_w, 16) is (np.int64 if above else np.float64)
    _check_enumeration_near(max_w, random.Random(45))


@pytest.mark.parametrize("above", [0, 1])
def test_enumeration_is_exact_at_the_single_bound(above):
    # 16^2 max|w| is 2^24 - 256 at max|w| = 2^16 - 1, the widest weight
    # the float32 tier takes; one unit more moves it to float64.
    max_w = (1 << 16) - 1 + above
    assert maxcut._enum_dtype(max_w, 16) is (np.float64 if above else np.float32)
    _check_enumeration_near(max_w, random.Random(16))


def _check_enumeration_near(max_w, rng, n=16):
    """Random signed weights within 2 of max_w, and the all -max_w instance."""
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.choice((1, -1)) * (max_w - rng.randint(0, 2))
    w[0][1] = w[1][0] = max_w
    assert enumerate_maxcut(w) == _seed_enumerate_maxcut(w)
    flat = [[-max_w * (i != j) for j in range(n)] for i in range(n)]
    assert enumerate_maxcut(flat) == (0, 0)


def test_sign_tables_are_shared_and_read_only():
    table = maxcut._sign_table(7, np.float32)
    assert maxcut._sign_table(7, np.float32) is table
    assert table.shape == (128, 7)
    with pytest.raises(ValueError):
        table[0, 0] = -1


def _seed_cut_from_signs(weights, signs):
    cut = 0
    n = len(weights)
    for i in range(n):
        for j in range(i + 1, n):
            if signs[i] != signs[j]:
                cut += weights[i][j]
    return cut


def _seed_enumerate_maxcut(weights):
    """The original enumeration: one full sign table, or a big-int loop."""
    weights = [list(row) for row in weights]
    n = len(weights)
    if n == 1:
        return 0, 0
    total = sum(weights[i][j] for i in range(n) for j in range(i + 1, n))
    max_w = max((abs(weights[i][j]) for i in range(n) for j in range(i + 1, n)), default=0)
    count = 1 << (n - 1)
    if max_w * n * n < maxcut.ENUM_INT64_LIMIT:
        w64 = np.asarray(weights, dtype=np.int64)
        codes = np.arange(count, dtype=np.uint32)
        signs = np.ones((count, n), dtype=np.int64)
        for i in range(1, n):
            signs[:, i] = 1 - 2 * ((codes >> (i - 1)) & 1).astype(np.int64)
        quad = np.einsum("bi,ij,bj->b", signs, w64, signs)
        cuts = (2 * total - quad) // 4
        best = int(np.argmax(cuts))
        return int(cuts[best]), int(best) << 1
    best_val = None
    best_mask = 0
    for code in range(count):
        signs = [1] + [1 - 2 * (code >> (i - 1) & 1) for i in range(1, n)]
        val = _seed_cut_from_signs(weights, signs)
        if best_val is None or val > best_val:
            best_val = val
            best_mask = code << 1
    return best_val, best_mask


@st.composite
def _weights(draw, min_n=1, max_n=12, scales=(1, 1 << 50)):
    """Symmetric zero-diagonal weights; narrow ranges make ties common."""
    n = draw(st.integers(min_n, max_n))
    bound = draw(st.sampled_from([0, 1, 3, 50]))
    entries = draw(
        st.lists(
            st.integers(-bound, bound),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    scale = draw(st.sampled_from(scales))
    w = [[0] * n for _ in range(n)]
    pairs = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = next(pairs) * scale
    return w


@settings(max_examples=300, deadline=None)
@given(_weights(scales=(1, 1 << 47, 1 << 50)))
def test_enumerate_matches_seed_enumeration(w):
    # Same value and the same (first in code order) maximizer as the full
    # table, on the float64, the int64 and the big-integer path.
    value, mask = enumerate_maxcut(w)
    assert (value, mask) == _seed_enumerate_maxcut(w)
    assert type(value) is int and type(mask) is int


def test_first_maximizer_spans_blocks():
    # At 18 vertices the high codes (vertices 9-17) come in two blocks.
    # With weights among vertices 0-8 only, every high code ties, so the
    # first maximizer lies in the first block, on every tier.
    n = 18
    rng = random.Random(9)
    w = [[0] * n for _ in range(n)]
    for i in range(9):
        for j in range(i + 1, 9):
            w[i][j] = w[j][i] = rng.randint(-3, 3)
    value, mask = enumerate_maxcut(w)
    assert (value, mask) == _seed_enumerate_maxcut(w)
    assert mask >> 9 == 0
    for shift in (50, 62):
        assert enumerate_maxcut(_scaled(w, shift)) == (value << shift, mask)


def _seed_improve_cut(weights, signs):
    """The original descent, which starts from a full O(n^2) cut count."""
    n = len(weights)
    s = list(signs)
    r = [sum(weights[i][j] * s[j] for j in range(n)) for i in range(n)]
    value = _seed_cut_from_signs(weights, s)
    while True:
        best_gain = 0
        best_i = -1
        for i in range(n):
            gain = s[i] * r[i]
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_i < 0:
            return value, s
        s[best_i] = -s[best_i]
        value += best_gain
        for j in range(n):
            if j != best_i:
                r[j] += 2 * s[best_i] * weights[best_i][j]


@settings(max_examples=300, deadline=None)
@given(_weights(scales=(1, (1 << 70) + 1)), st.data())
def test_improve_cut_matches_seed_descent(w, data):
    # Same value, signs and integer type, also past 2^64 (Python ints);
    # the +1 keeps low bits set, so any float rounding would show.
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(w), max_size=len(w)))
    value, polished = improve_cut(_node_array(w), signs)
    assert (value, polished.tolist()) == _seed_improve_cut(w, signs)
    assert type(value) is int
    assert value == _seed_cut_from_signs(w, polished)


def test_enumerate_memory_stays_bounded():
    # A full 2^21 x 22 int64 sign table alone would take 369 MB.
    rng = random.Random(22)
    inst = _random_instance(rng, 22)
    tracemalloc.start()
    try:
        value, mask = enumerate_maxcut(inst.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert cut_weight(inst, mask) == value


# -- exact solves ----------------------------------------------------------


def test_cycle_five_leaf_and_branching_paths(monkeypatch):
    inst = _instance_from_graph(cycle(5))
    direct = solve_maxcut(inst)
    assert direct.value == 4
    assert direct.status == "optimal"
    assert cut_weight(inst, direct.mask) == 4
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 2)
    forced = solve_maxcut(inst)
    assert forced.value == 4
    assert forced.status == "optimal"
    assert cut_weight(inst, forced.mask) == 4


def test_random_instances_match_enumeration(monkeypatch):
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 5)
    rng = random.Random(42)
    for trial in range(15):
        n = rng.randint(6, 13)
        inst = _random_instance(rng, n)
        reference, _ = enumerate_maxcut(inst.weights)
        res = solve_maxcut(inst, seed=trial)
        assert res.status == "optimal"
        assert res.value == reference
        assert cut_weight(inst, res.mask) == reference
        assert res.best_bound == res.value


@settings(max_examples=30, deadline=None)
@given(_weights(min_n=5), st.integers(0, 3))
def test_solver_matches_enumeration(w, seed):
    # A leaf size of 4 sends every order above 4 through node SDP bounds.
    # Hypothesis rejects function-scoped fixtures, so no monkeypatch here.
    inst = MaxCutInstance.build(w)
    reference, _ = enumerate_maxcut(inst.weights)
    with patch.object(maxcut, "LEAF_SIZE", 4):
        res = solve_maxcut(inst, seed=seed)
    assert res.status == "optimal"
    assert res.value == reference
    assert cut_weight(inst, res.mask) == reference


@pytest.mark.parametrize("shift", [0, 39, 61])
def test_leaf_size_follows_the_enumeration_tier(monkeypatch, bounded, shift):
    # A 20-cycle is one float32 leaf, and scaled by 2^39 one float64
    # leaf: its width 20 * 2^39 keeps every leaf of LEAF_SIZE vertices in
    # the float tiers.  Scaled by 2^61 its enumeration needs Python
    # integers, in which a leaf of LEAF_SIZE vertices takes about 4 s, so
    # that search bounds its root and keeps the smaller leaves of
    # WIDE_LEAF_SIZE.
    sizes = []
    original = maxcut.enumerate_maxcut

    def recording(weights):
        sizes.append(len(weights))
        return original(weights)

    monkeypatch.setattr(maxcut, "enumerate_maxcut", recording)
    ring = _instance_from_graph(cycle(20)).weights
    res = solve_maxcut(MaxCutInstance.build(_scaled(ring, shift)))
    assert (res.value, res.status) == (20 << shift, "optimal")
    if shift < 61:
        leaf_dtype = np.float64 if shift else np.float32
        assert maxcut._enum_dtype(1 << shift, 20) is leaf_dtype
        assert (bounded, sizes) == ([], [20])
    else:
        assert bounded[:1] == [0]
        assert sizes and max(sizes) <= maxcut.WIDE_LEAF_SIZE


@pytest.mark.parametrize("shift, flagged", [(50, False), (51, True)])
def test_wide_weights_are_flagged(caplog, shift, flagged):
    # C_5 weighs 5 w in total: 2^52.3 at w = 2^50, and past 2^53, where
    # the node relaxations' float Laplacians round, at w = 2^51.
    ring = _instance_from_graph(cycle(5)).weights
    with caplog.at_level("WARNING", logger="cheeger.maxcut"):
        res = solve_maxcut(MaxCutInstance.build(_scaled(ring, shift)))
    assert res.value == 4 << shift
    warning = "the total weight has 54 bits; node relaxations round the Laplacian"
    assert [record.getMessage() for record in caplog.records] == [warning] * flagged


def test_bisection_instance_of_path_graph():
    red = bisection_to_maxcut(path(3), 1, Fraction(1))
    res = solve_maxcut(red.instance)
    assert res.value == 19
    assert red.offset - res.value == 1
    subset = red.decode_subset(res.mask)
    assert subset.size == 1


def test_ratio_instance_certifies_cheeger_value():
    # At gamma = h(C14) = 2/7 the minimum penalized objective is zero.
    red = dinkelbach_to_maxcut(cycle(14), Fraction(2, 7))
    res = solve_maxcut(red.instance)
    assert res.status == "optimal"
    assert red.offset - res.value == 0


# -- injected thresholds ---------------------------------------------------


def test_injected_bound_semantics_on_enumeration_path():
    inst = _instance_from_graph(cycle(5))
    at_opt = solve_maxcut(inst, initial_lb=4)
    assert at_opt.status == "bound-stop"
    assert at_opt.value == 4
    assert at_opt.mask is None
    below = solve_maxcut(inst, initial_lb=3)
    assert below.status == "optimal"
    assert below.value == 4
    assert cut_weight(inst, below.mask) == 4
    above = solve_maxcut(inst, initial_lb=10)
    assert above.status == "bound-stop"
    assert above.value == 10
    assert above.mask is None


def test_injected_bound_prunes_at_root_on_sdp_path(monkeypatch):
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 2)
    inst = _instance_from_graph(cycle(5))
    res = solve_maxcut(inst, initial_lb=4)
    assert res.status == "bound-stop"
    assert res.nodes == 1


def test_bisection_root_prune_with_tight_bound():
    g = complete(12)
    red = bisection_to_maxcut(g, 6, Fraction(36))
    lb = red.offset - 36
    res = solve_maxcut(red.instance, initial_lb=int(lb))
    assert res.status == "bound-stop"
    assert res.nodes == 1


# -- resource limits -------------------------------------------------------


def test_node_limit_reports_partial_result(bounded):
    # Two vertices above the leaf size: the root and both children are
    # bounded, and the limit stops the search with the children open.
    inst = _above_leaf(2)
    res = solve_maxcut(inst, budget=Budget(node_limit=2))
    assert res.status == "limit"
    assert bounded[:1] == [0]
    assert res.value <= _optimum(inst) <= res.best_bound


def test_searches_share_one_budget(bounded):
    # The second search starts with the budget already spent: it admits
    # no root and charges nothing.
    inst = _above_leaf(2)
    budget = Budget(node_limit=3)
    first = solve_maxcut(inst, budget=budget)
    assert bounded == [0, 1, 2]
    second = solve_maxcut(inst, budget=budget)
    assert bounded == [0, 1, 2]
    assert (first.status, first.nodes) == ("limit", 3)
    assert (second.status, second.nodes) == ("limit", 0)
    assert (second.value, second.mask, second.best_bound) == (0, 0, math.inf)
    assert budget.nodes == 3
    assert budget.exhausted()


def test_exhausted_budget_keeps_the_injected_bound():
    red = dinkelbach_to_maxcut(cycle(14), Fraction(2, 7))
    res = solve_maxcut(red.instance, initial_lb=9000, budget=Budget(node_limit=0))
    assert (res.status, res.nodes, res.value, res.mask) == ("limit", 0, 9000, None)
    assert res.best_bound == math.inf


def test_time_limit_zero_stops_after_root():
    red = dinkelbach_to_maxcut(cycle(14), Fraction(2, 7))
    res = solve_maxcut(red.instance, budget=Budget(time_limit=0.0))
    assert res.status == "limit"
    assert res.nodes == 0
    assert res.best_bound >= res.value


def test_time_limit_stops_after_the_root_solve(monkeypatch):
    # Time runs out after the root's one SDP solve: the search stops with
    # one node, the root's certified bound and its rounded cut.
    inst = _random_instance(random.Random(0), 12)
    original = maxcut.sdp_solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(maxcut, "sdp_solve", counting_solve)
    monkeypatch.setattr(Budget, "elapsed", lambda self: 0.0 if not calls else 100.0)
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 4)
    res = solve_maxcut(inst, budget=Budget(time_limit=50.0))
    assert len(calls) == 1
    assert res.nodes == 1
    assert res.status == "limit"
    assert res.best_bound >= res.value
    assert res.value == enumerate_maxcut(inst.weights)[0]


def _at_width(width, n=20, seed=6):
    """Random weights on n vertices whose |w| summed over pairs is ``width``."""
    w = [list(row) for row in _random_instance(random.Random(seed), n).weights]
    w = _scaled(w, width.bit_length() - 2 - _width(w).bit_length())
    w[0][1] = w[1][0] = width - (_width(w) - abs(w[0][1]))
    return MaxCutInstance.build(w)


# SHA-256 of repr((trace rows, value, mask, nodes)) of a default solve,
# recorded on the list-based engine before node weights became arrays.
_PINNED_TRACES = {
    "above-leaf": (lambda: _above_leaf(3),
                   "0d59ddcdaa2d631c8b8c5ed4bd5fd32c8b7f786fe849cf30a2a0264d06418e19"),
    "ring-2^61": (lambda: MaxCutInstance.build(_scaled(_instance_from_graph(cycle(20)).weights, 61)),
                  "0cf2a13df483c9b4274bc62c154e450624e88ccf36d59fd494f0cbbffb430224"),
    "under-int64": (lambda: _at_width(maxcut.ENUM_INT64_LIMIT - 1),
                    "2c9dc7521eafca434baf9372c8d761f96cb5f4e7907283551b5495a011eb31e1"),
    "at-int64": (lambda: _at_width(maxcut.ENUM_INT64_LIMIT),
                 "61084d9ded59522bc36d7fe72080b60ea1b9e29444ee7d1b2aab0f6758acc997"),
}


@pytest.mark.parametrize("name", list(_PINNED_TRACES))
def test_node_trace_is_pinned(name):
    # Every node's id, depth, bound and incumbent, in order: the engine
    # takes the same path on small integers, on the Python-integer tier
    # with wide leaves, and on either side of the int64 node limit.
    build, pinned = _PINNED_TRACES[name]
    inst = build()
    rows = []
    res = solve_maxcut(inst, trace=rows)
    assert res.status == "optimal" and res.nodes > 1
    assert cut_weight(inst, res.mask) == res.value
    if inst.n <= 25:
        assert res.value == _optimum(inst)
    state = repr((rows, res.value, res.mask, res.nodes))
    assert hashlib.sha256(state.encode()).hexdigest() == pinned


# -- reproducibility -------------------------------------------------------


def test_same_seed_same_search(monkeypatch):
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 6)
    rng = random.Random(5)
    inst = _random_instance(rng, 12)
    first = solve_maxcut(inst, seed=9)
    second = solve_maxcut(inst, seed=9)
    assert first.value == second.value
    assert first.mask == second.mask
    assert first.nodes == second.nodes


@pytest.mark.parametrize("failing_call", [2, 4])
def test_worker_failure_propagates(monkeypatch, failing_call):
    # Three vertices above the leaf size, a clean run on this instance
    # bounds seven nodes.  The bound of a child node (the second or the
    # fourth bound computed) fails; the search loop must stop and re-raise
    # rather than report "optimal" with a subtree never explored.
    inst = _above_leaf(3)
    original = maxcut._Search._bound
    calls = []

    def failing_bound(self, node):
        calls.append(node.node_id)
        if len(calls) == failing_call:
            raise RuntimeError("injected bound failure")
        return original(self, node)

    monkeypatch.setattr(maxcut._Search, "_bound", failing_bound)
    with pytest.raises(RuntimeError, match="^injected bound failure$"):
        solve_maxcut(inst)
    assert len(calls) == failing_call
    assert calls[:2] == [0, 1]
    assert len(set(calls)) == failing_call


def test_one_sdp_solve_per_bounded_node(monkeypatch):
    rng = random.Random(8)
    inst = _random_instance(rng, 11)
    solves = []
    leaves = []
    original_solve = maxcut.sdp_solve
    original_enum = maxcut.enumerate_maxcut

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return original_solve(*args, **kwargs)

    def counting_enum(*args, **kwargs):
        leaves.append(1)
        return original_enum(*args, **kwargs)

    monkeypatch.setattr(maxcut, "sdp_solve", counting_solve)
    monkeypatch.setattr(maxcut, "enumerate_maxcut", counting_enum)
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 5)
    res = solve_maxcut(inst)
    assert len(solves) == res.nodes - len(leaves)
    value, _ = enumerate_maxcut(inst)
    assert res.status == "optimal"
    assert res.value == value
    assert cut_weight(inst, res.mask) == value


def test_node_trace_records_every_node(monkeypatch):
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 5)
    rng = random.Random(4)
    inst = _random_instance(rng, 11)
    rows = []
    res = solve_maxcut(inst, trace=rows)
    assert len(rows) == res.nodes
    assert rows[0][0] == 0 and rows[0][1] == 0
    assert rows[0][2] >= res.value
    incumbents = [row[3] for row in rows]
    assert incumbents == sorted(incumbents)
    assert incumbents[-1] <= res.value
