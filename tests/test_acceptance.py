"""End-to-end acceptance checks for the solver stack.

Each numbered test is one release gate; ``pytest -v`` prints one verdict
line per gate.  Pinned tolerances live in the constants below; every
other comparison is exact rational or integer arithmetic.
"""

import functools
import glob
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cheeger.bounds import global_sdp_bound
from cheeger.dinkelbach import dinkelbach_solve, evaluate_q
from cheeger.graphs import (
    Graph,
    VertexSubset,
    brute_force_bisection,
    brute_force_h,
    complete,
    cycle,
    expansion,
    gnp,
    hypercube,
    laplacian,
    load_graph,
    path,
)
from cheeger.maxcut import enumerate_maxcut, solve_maxcut
from cheeger.report import canonical_json
from cheeger.split_bound import pre_eliminate, split_and_bound, verify_lower_bound
from cheeger.transforms import (
    MaxCutInstance,
    bisection_to_maxcut,
    dinkelbach_to_maxcut,
)

SPECTRAL_TOL = 1e-5       # gate 2: relaxation value vs eigenvalue bound
TABLE_SDP_TOL = 1e-4      # gate 9: published per-instance bound values
ORACLE_TIME_BUDGET = 600.0  # gate 1: seconds, single worker

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def star(leaves: int) -> Graph:
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _random_cases():
    cases = []
    for seed in range(50):
        n = 6 + seed % 11
        p = (0.2, 0.4, 0.6)[seed % 3]
        cases.append((n, p, 1000 + seed, seed))
    return cases


@functools.lru_cache(maxsize=1)
def _oracle_sweep():
    """Gate 1 workload, cached so gate 10 can diff a fresh repetition."""
    runs = []
    started = time.monotonic()
    for n, p, gseed, seed in _random_cases():
        g = gnp(n, p, seed=gseed)
        rs = split_and_bound(g, seed=seed)
        rd = dinkelbach_solve(g, seed=seed)
        hb, _ = brute_force_h(g)
        runs.append((rs, rd, hb))
    return runs, time.monotonic() - started


def test_01_end_to_end_oracle_equivalence():
    runs, elapsed = _oracle_sweep()
    for rs, rd, hb in runs:
        assert rs.status == "solved" and rd.status == "solved"
        assert rs.upper == rd.upper == hb
        assert rs.lower == rs.upper and rd.lower == rd.upper
    assert elapsed < ORACLE_TIME_BUDGET


def test_02_global_bound_tracks_second_eigenvalue():
    suite = (
        [complete(n) for n in range(4, 9)]
        + [cycle(n) for n in range(5, 11)]
        + [hypercube(3), path(6), star(7)]
    )
    for g in suite:
        lam2 = float(np.linalg.eigvalsh(laplacian(g))[1])
        assert abs(global_sdp_bound(g) - lam2 / 2.0) <= SPECTRAL_TOL


def _suite_14():
    return [
        complete(4), complete(7),
        cycle(6), cycle(11), cycle(14),
        path(6), hypercube(3), star(7),
        gnp(10, 0.4, seed=2), gnp(12, 0.3, seed=5),
        gnp(13, 0.6, seed=11), gnp(14, 0.5, seed=8),
    ]


def test_03_per_cardinality_bound_sandwich():
    for g in _suite_14():
        table = pre_eliminate(g, seed=0)
        for k in range(1, g.n // 2 + 1):
            exact_cut, _ = brute_force_bisection(g, k)
            h_k = Fraction(exact_cut, k)
            assert table.lower[k] <= h_k <= table.upper(k), (g.n, k)


def _suite_10():
    return [
        complete(4), complete(7), cycle(6), cycle(9), path(6),
        hypercube(3), star(7),
        gnp(8, 0.5, seed=3), gnp(9, 0.3, seed=13), gnp(10, 0.4, seed=2),
    ]


def _ratio_objective_minimum(g, gamma: Fraction) -> int:
    """Enumerated min of gamma_d * cut(S) - gamma_n * |S| over 1 <= |S| <= n/2."""
    best = None
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        if size > g.n // 2:
            continue
        s = VertexSubset(g.n, mask)
        value = gamma.denominator * sum(
            (g.adj_masks[v] & ~mask).bit_count() for v in s.indices()
        ) - gamma.numerator * size
        if best is None or value < best:
            best = value
    return best


def test_04_reduction_identities():
    for g in _suite_10():
        for k in range(1, g.n // 2 + 1):
            exact_cut, _ = brute_force_bisection(g, k)
            red = bisection_to_maxcut(g, k, exact_cut)
            value, _ = enumerate_maxcut(red.instance)
            assert red.offset - value == exact_cut, (g.n, k)
        h, _ = brute_force_h(g)
        for gamma in (Fraction(0), Fraction(1), h, h + Fraction(1, 7),
                      h - Fraction(1, 7)):
            assert gamma >= 0
            red = dinkelbach_to_maxcut(g, gamma)
            value, _ = enumerate_maxcut(red.instance)
            assert red.offset - value == _ratio_objective_minimum(g, gamma)


def test_05_ratio_objective_structure():
    for g in _suite_14():
        h, _ = brute_force_h(g)
        for j in range(11):
            gamma = h * Fraction(j, 5)
            value = evaluate_q(g, gamma).value
            if j < 5:
                assert value > 0, (g.n, j)
            elif j == 5:
                assert value == 0, (g.n,)
            else:
                assert value < 0, (g.n, j)
        report = dinkelbach_solve(g, seed=0)
        assert report.status == "solved" and report.upper == h
        assert report.iterations <= g.n // 2
        gammas = [row.gamma for row in report.trace]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        sizes = [row.denominator for row in report.trace]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert all(row.q_value < 0 for row in report.trace[:-1])
        assert report.trace[-1].q_value == 0


def _family_oracles():
    cases = []
    for n in range(3, 13):
        cases.append((complete(n), Fraction((n + 1) // 2)))
    for n in range(4, 15):
        cases.append((cycle(n), Fraction(2, n // 2)))
    for d in (2, 3, 4):
        cases.append((hypercube(d), Fraction(1)))
    return cases


def test_06_known_families():
    for g, expected in _family_oracles():
        hb, _ = brute_force_h(g)
        assert hb == expected, (g.n, hb, expected)
        assert split_and_bound(g, seed=0).upper == expected, g.n
        assert dinkelbach_solve(g, seed=0).upper == expected, g.n


def _random_instances():
    rng = random.Random(77)
    instances = []
    for trial in range(100):
        size = rng.randint(5, 14)
        w = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                w[i][j] = w[j][i] = rng.randint(-10, 10)
        instances.append(MaxCutInstance.build(w))
    return instances


@functools.lru_cache(maxsize=1)
def _engine_sweep():
    """Gate 7 workload, cached so gate 10 can diff a fresh repetition."""
    outcomes = []
    for trial, inst in enumerate(_random_instances()):
        res = solve_maxcut(inst, seed=trial)
        outcomes.append(res)
    return outcomes


def test_07_maxcut_engine_exactness():
    for trial, (inst, res) in enumerate(zip(_random_instances(), _engine_sweep())):
        opt, _ = enumerate_maxcut(inst)
        assert res.status == "optimal" and res.value == opt, trial
        assert inst.cut_weight(res.mask) == opt
        below = solve_maxcut(inst, initial_lb=opt - 1, seed=trial)
        assert below.status == "optimal" and below.value == opt
        at = solve_maxcut(inst, initial_lb=opt, seed=trial)
        assert at.value == opt and at.mask is None
        above = solve_maxcut(inst, initial_lb=opt + 3, seed=trial)
        assert above.status == "bound-stop" and above.value == opt + 3


def test_08_lower_bound_verification():
    for g, h in _family_oracles():
        ok, certificate = verify_lower_bound(g, h, seed=0)
        assert ok and certificate is None, g.n
        ok, certificate = verify_lower_bound(g, h + Fraction(1, 100), seed=0)
        assert not ok, g.n
        assert expansion(g, certificate) < h + Fraction(1, 100)
        ok, certificate = verify_lower_bound(g, h - Fraction(1, 100), seed=0)
        assert ok and certificate is None, g.n


def test_09_polytope_instance_table():
    files = sorted(glob.glob(os.path.join(DATA_DIR, "grlex*")))
    if not files:
        pytest.skip("polytope instance files not supplied")
    for name in files:
        with open(name, "r", encoding="utf-8") as fh:
            g = load_graph(fh.read())
        table = pre_eliminate(g, seed=0)
        floor = min(float(table.lower[k]) for k in table.lower)
        assert abs(floor - 1.0) <= TABLE_SDP_TOL, name
        assert split_and_bound(g, seed=0).upper == 1, name


def test_10_deterministic_reports():
    first, _ = _oracle_sweep()
    for (n, p, gseed, seed), (rs, rd, _) in zip(_random_cases(), first):
        g = gnp(n, p, seed=gseed)
        again_s = split_and_bound(g, seed=seed)
        again_d = dinkelbach_solve(g, seed=seed)
        assert canonical_json(again_s) == canonical_json(rs)
        assert canonical_json(again_d) == canonical_json(rd)
    for trial, (inst, res) in enumerate(zip(_random_instances(), _engine_sweep())):
        again = solve_maxcut(inst, seed=trial)
        assert (again.value, again.mask, again.status, again.nodes,
                again.best_bound) == (res.value, res.mask, res.status,
                                      res.nodes, res.best_bound)
