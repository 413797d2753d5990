"""Tests for the branch-and-bound max-cut solver."""

import random
import threading
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


def _brute_maxcut(inst):
    best = 0
    for mask in range(1 << (inst.n - 1)):
        best = max(best, inst.cut_weight(mask))
    return best


# -- local helpers ---------------------------------------------------------


def test_improve_cut_reaches_local_optimum():
    # Triangle with weights 3, 2, -1: the single vertex 0 gives cut 5,
    # which one steepest flip from the all-equal start already finds.
    w = ((0, 3, 2), (3, 0, -1), (2, -1, 0))
    value, signs = improve_cut(w, [1, 1, 1])
    assert value == 5
    assert signs[0] != signs[1] and signs[1] == signs[2]
    again, _ = improve_cut(w, signs)
    assert again == value


def test_improve_cut_all_negative_keeps_empty_side():
    w = ((0, -4), (-4, 0))
    value, _ = improve_cut(w, [1, 1])
    assert value == 0


def test_gw_round_recovers_rank_one_point():
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    x = np.outer(signs, signs)
    rng = np.random.default_rng(7)
    candidates = gw_round(x, rng)
    assert candidates
    for cand in candidates:
        assert list(cand) == list(signs)


def test_enumerate_matches_brute_force():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(3, 9)
        inst = _random_instance(rng, n)
        value, mask = enumerate_maxcut(inst.weights)
        assert value == _brute_maxcut(inst)
        assert inst.cut_weight(mask) == value
        assert not mask & 1


def test_contraction_preserves_maxcut():
    # Folding any vertex onto the anchor in both orientations splits the
    # assignment space in two, so the parent optimum is the better child.
    rng = random.Random(17)
    for _ in range(3):
        n = rng.randint(4, 8)
        inst = _random_instance(rng, n, density=0.9)
        parent, _ = enumerate_maxcut(inst.weights)
        pick = rng.randint(1, n - 1)
        best = None
        for rel in (1, -1):
            folded, shift = contract_pair(inst.weights, pick, rel)
            value, _ = enumerate_maxcut(folded)
            value += shift
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
@given(_weights())
def test_enumerate_matches_seed_enumeration(w):
    # Same value and the same (first in code order) maximizer as the full
    # table, on both the int64 and the big-integer path.
    value, mask = enumerate_maxcut(w)
    assert (value, mask) == _seed_enumerate_maxcut(w)
    assert type(value) is int and type(mask) is int


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
    value, polished = improve_cut(w, signs)
    assert (value, polished) == _seed_improve_cut(w, signs)
    assert type(value) is int
    assert value == _seed_cut_from_signs(w, polished)


def _seed_separate_triangles(x, cap):
    """The original triple loop over all sign patterns."""
    n = x.shape[0]
    found = []
    patterns = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    for i in range(n):
        for j in range(i + 1, n):
            xij = x[i, j]
            for k in range(j + 1, n):
                xik = x[i, k]
                xjk = x[j, k]
                for a, b, c in patterns:
                    viol = -(a * xij + b * xik + c * xjk) - 1.0
                    if viol > 1e-4:
                        found.append((viol, i, j, k, a, b, c))
    found.sort(key=lambda t: (-t[0], t[1:]))
    return [t[1:] for t in found[:cap]]


@st.composite
def _unit_diagonal_points(draw):
    """Symmetric matrices with unit diagonal; few distinct entries tie often."""
    n = draw(st.integers(1, 9))
    entry = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.5, 1.0]) | st.floats(-1.5, 1.5)
    entries = draw(st.lists(entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    x = np.eye(n)
    pairs = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            x[i, j] = x[j, i] = next(pairs)
    return x


def _assert_same_triangles(x, cap):
    found = maxcut._separate_triangles(x, cap)
    assert found == _seed_separate_triangles(x, cap)
    assert all(type(v) is int for t in found for v in t)


@settings(max_examples=300, deadline=None)
@given(_unit_diagonal_points(), st.integers(0, 40))
def test_separate_triangles_matches_seed_loop(x, cap):
    _assert_same_triangles(x, cap)


def test_separate_triangles_matches_seed_loop_on_relaxations():
    # Node relaxations of random instances, at the engine's cap.
    rng = random.Random(5)
    for n in (6, 13, 21, 30):
        inst = _random_instance(rng, n)
        obj = -maxcut._signed_laplacian(inst.weights) / 4.0
        x = maxcut.sdp_solve(maxcut.UnitDiagonalSdp(obj), tol=1e-7, max_iterations=60).x
        _assert_same_triangles(x, maxcut.TRIANGLE_CAP_PER_VERTEX * n)
        _assert_same_triangles(np.round(x, 1), maxcut.TRIANGLE_CAP_PER_VERTEX * n)


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
    assert inst.cut_weight(mask) == value


# -- exact solves ----------------------------------------------------------


def test_cycle_five_leaf_and_branching_paths(monkeypatch):
    inst = _instance_from_graph(cycle(5))
    direct = solve_maxcut(inst)
    assert direct.value == 4
    assert direct.status == "optimal"
    assert inst.cut_weight(direct.mask) == 4
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 2)
    forced = solve_maxcut(inst)
    assert forced.value == 4
    assert forced.status == "optimal"
    assert inst.cut_weight(forced.mask) == 4


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
        assert inst.cut_weight(res.mask) == reference
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
    assert inst.cut_weight(res.mask) == reference


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
    assert inst.cut_weight(below.mask) == 4
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


def test_node_limit_reports_partial_result():
    red = dinkelbach_to_maxcut(cycle(14), Fraction(2, 7))
    res = solve_maxcut(red.instance, node_limit=2)
    assert res.status == "limit"
    assert res.value <= 9948
    assert res.best_bound >= 9948


def test_time_limit_zero_stops_after_root():
    red = dinkelbach_to_maxcut(cycle(14), Fraction(2, 7))
    res = solve_maxcut(red.instance, time_limit=0.0)
    assert res.status == "limit"
    assert res.best_bound >= res.value


def test_time_limit_stops_triangle_loop(monkeypatch):
    # Without a limit this root closes after four triangle solves.  Time
    # runs out after the first one: the node must stop there and keep the
    # certified bound it has.
    inst = _random_instance(random.Random(0), 12)
    original = maxcut.sdp_solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(maxcut, "sdp_solve", counting_solve)
    monkeypatch.setattr(
        maxcut._Search, "_elapsed", lambda self: 0.0 if len(calls) < 2 else 100.0
    )
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 4)
    res = solve_maxcut(inst, time_limit=50.0)
    assert len(calls) == 2
    assert res.status == "limit"
    assert res.best_bound >= res.value
    assert res.value == enumerate_maxcut(inst.weights)[0]


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


def test_worker_pool_agrees_with_serial(monkeypatch):
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 6)
    rng = random.Random(6)
    inst = _random_instance(rng, 12)
    serial = solve_maxcut(inst, seed=1)
    pooled = solve_maxcut(inst, seed=1, workers=2)
    assert pooled.status == "optimal"
    assert pooled.value == serial.value
    assert inst.cut_weight(pooled.mask) == pooled.value


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_failure_propagates(monkeypatch, workers):
    # A clean run on this instance explores about fifty nodes.  The second
    # bound (a child node, inside a worker thread) fails; the search must
    # stop every worker and re-raise rather than report "optimal" with a
    # subtree never explored.
    red = dinkelbach_to_maxcut(cycle(16), Fraction(1, 4))
    original = maxcut._Search._bound
    lock = threading.Lock()
    calls = []

    def failing_bound(self, node):
        with lock:
            calls.append(node.node_id)
            fail = len(calls) == 2
        if fail:
            raise RuntimeError("injected bound failure")
        return original(self, node)

    monkeypatch.setattr(maxcut._Search, "_bound", failing_bound)
    outcome = {}

    def run():
        try:
            outcome["result"] = solve_maxcut(red.instance, workers=workers)
        except RuntimeError as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    assert "result" not in outcome
    assert str(outcome["error"]) == "injected bound failure"


def test_triangle_tightening_keeps_the_optimum(monkeypatch):
    rng = random.Random(8)
    inst = _random_instance(rng, 11)
    solves = []
    original = maxcut.sdp_solve

    def counting(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(maxcut, "sdp_solve", counting)
    monkeypatch.setattr(maxcut, "LEAF_SIZE", 5)
    with_tri = solve_maxcut(inst)
    # More solves than nodes: the root was tightened by triangle solves.
    assert len(solves) > with_tri.nodes
    value, _ = enumerate_maxcut(inst)
    assert with_tri.status == "optimal"
    assert with_tri.value == value
    assert inst.cut_weight(with_tri.mask) == value


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
