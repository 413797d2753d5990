"""Tests for the closed-form max-cut reductions.

The generic route below (a penalized QUBO, then the anchor-vertex
reduction of any QUBO to max-cut) is written independently of the
closed-form builders in ``cheeger.transforms`` and serves as their
oracle: both routes must produce identical weights and offsets.
"""

import itertools
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from cheeger.graphs import (
    Graph,
    VertexSubset,
    brute_force_bisection,
    complete,
    cut_value,
    cycle,
    gnp,
    path,
)
from cheeger.sdp import DIMENSION_CAP
from cheeger.transforms import (
    MaxCutInstance,
    TransformError,
    bisection_to_maxcut,
    dinkelbach_to_maxcut,
    dump_instance,
    load_instance,
    penalty_weight,
    slack_weights,
)

from conftest import cut_weight

# -- generic oracle route ----------------------------------------------------


@dataclass(frozen=True)
class QuboProblem:
    """min x^T Q x + t^T x + c over binary x; Q symmetric, diagonal allowed."""

    quadratic: tuple[tuple[Fraction, ...], ...]
    linear: tuple[Fraction, ...]
    constant: Fraction

    @classmethod
    def build(cls, quadratic, linear, constant) -> "QuboProblem":
        q = tuple(tuple(Fraction(v) for v in row) for row in quadratic)
        t = tuple(Fraction(v) for v in linear)
        d = len(t)
        if len(q) != d or any(len(row) != d for row in q):
            raise TransformError("quadratic matrix shape does not match linear term")
        for i in range(d):
            for j in range(i):
                if q[i][j] != q[j][i]:
                    raise TransformError("quadratic matrix must be symmetric")
        return cls(quadratic=q, linear=t, constant=Fraction(constant))

    @property
    def dimension(self) -> int:
        return len(self.linear)

    def evaluate(self, x) -> Fraction:
        bits = tuple(x)
        if len(bits) != self.dimension or any(b not in (0, 1) for b in bits):
            raise ValueError("assignment must be a 0/1 vector of matching length")
        total = Fraction(self.constant)
        for i, bi in enumerate(bits):
            if not bi:
                continue
            total += self.linear[i] + self.quadratic[i][i]
            row = self.quadratic[i]
            for j in range(i + 1, self.dimension):
                if bits[j]:
                    total += 2 * row[j]
        return total


@dataclass(frozen=True)
class QuboReduction:
    """Max-cut form of a QUBO: scale * q(x) = offset - cut for all x."""

    instance: MaxCutInstance
    offset: int
    scale: int

    def decode(self, mask: int) -> tuple[int, ...]:
        anchor = mask & 1
        return tuple(
            1 if (mask >> (i + 1) & 1) == anchor else 0
            for i in range(self.instance.n - 1)
        )


def qubo_to_maxcut(qubo: QuboProblem) -> QuboReduction:
    """Anchor-vertex reduction of an arbitrary QUBO to max-cut.

    The diagonal is folded into the linear term first (x^2 = x on binary
    inputs).  Rational coefficients are cleared by their least common
    denominator, which must divide 4; larger denominators indicate a
    malformed penalty and raise TransformError.
    """
    d = qubo.dimension
    folded_linear = [qubo.linear[i] + qubo.quadratic[i][i] for i in range(d)]
    off_diag = [
        [qubo.quadratic[i][j] if i != j else Fraction(0) for j in range(d)]
        for i in range(d)
    ]

    denoms = [qubo.constant.denominator]
    denoms += [v.denominator for v in folded_linear]
    denoms += [off_diag[i][j].denominator for i in range(d) for j in range(i + 1, d)]
    scale = lcm(*denoms) if denoms else 1
    if 4 % scale:
        raise TransformError(f"coefficient denominators require scale {scale}, not in {{1, 2, 4}}")

    qs = [[int(scale * off_diag[i][j]) for j in range(d)] for i in range(d)]
    ts = [int(scale * v) for v in folded_linear]
    cs = int(scale * qubo.constant)

    weights = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d):
        w = sum(qs[i]) + ts[i]
        weights[0][i + 1] = weights[i + 1][0] = w
        for j in range(i + 1, d):
            weights[i + 1][j + 1] = weights[j + 1][i + 1] = qs[i][j]
    pair_sum = sum(qs[i][j] for i in range(d) for j in range(i + 1, d))
    offset = 2 * pair_sum + sum(ts) + cs
    return QuboReduction(
        instance=MaxCutInstance.build(weights), offset=offset, scale=scale
    )


def bisection_to_qubo(g: Graph, k: int, cut_upper_bound: int) -> QuboProblem:
    """Penalized form of the cardinality-k minimum bisection.

    q(x) = x^T L x + (4u + 1)(sum x - k)^2 with u any upper bound on the
    optimal bisection.  The penalty exceeds every feasible value, so any
    assignment off the cardinality shell costs more than the worst
    feasible subset and minimizers are exactly the optimal bisections.
    """
    if not 1 <= k <= g.n // 2:
        raise ValueError(f"cardinality {k} out of range for n={g.n}")
    if cut_upper_bound < 1:
        raise ValueError("cut upper bound must be at least 1 on a connected graph")
    n = g.n
    penalty = 4 * cut_upper_bound + 1
    deg = g.degrees
    adj = g.adjacency_matrix()
    quad = [
        [
            Fraction(penalty - (1 if adj[i][j] else 0)) if i != j else Fraction(deg[i] + penalty)
            for j in range(n)
        ]
        for i in range(n)
    ]
    linear = [Fraction(-2 * penalty * k)] * n
    return QuboProblem.build(quad, linear, Fraction(penalty * k * k))


def dinkelbach_to_qubo(g: Graph, gamma: Fraction) -> QuboProblem:
    """Penalized QUBO whose minimum is min over F of gamma_d*cut - gamma_n*|S|.

    Variables are the n vertex indicators followed by two binary counters
    alpha and beta; the penalty sigma multiplies the squared residuals of
    sum x - alpha.v = 1 and sum x + beta.v = floor(n/2).
    """
    gn, gd = gamma.numerator, gamma.denominator
    n = g.n
    s = n // 2
    v = slack_weights(n)
    nb = len(v)
    d = n + 2 * nb
    sigma = penalty_weight(g, gamma)

    quad = [[Fraction(0)] * d for _ in range(d)]
    linear = [Fraction(0)] * d
    constant = Fraction(0)

    adj = g.adjacency_matrix()
    deg = g.degrees
    for i in range(n):
        quad[i][i] += gd * deg[i]
        linear[i] += -gn
        for j in range(i + 1, n):
            if adj[i][j]:
                quad[i][j] -= gd
                quad[j][i] -= gd

    def add_square(coeffs, shift):
        # sigma * (sum coeffs[i] z_i + shift)^2
        nonlocal constant
        for a in range(d):
            ca = coeffs[a]
            if not ca:
                continue
            quad[a][a] += sigma * ca * ca
            linear[a] += 2 * sigma * ca * shift
            for bq in range(a + 1, d):
                cb = coeffs[bq]
                if cb:
                    quad[a][bq] += sigma * ca * cb
                    quad[bq][a] += sigma * ca * cb
        constant += sigma * shift * shift

    first = [1] * n + [-w for w in v] + [0] * nb
    second = [1] * n + [0] * nb + list(v)
    add_square(first, -1)
    add_square(second, -s)
    return QuboProblem.build(quad, linear, constant)


# -- tests --------------------------------------------------------------------


def _random_qubo(rng, d, denominators=(1,)):
    quad = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        quad[i][i] = Fraction(rng.randint(-8, 8), rng.choice(denominators))
        for j in range(i + 1, d):
            quad[i][j] = quad[j][i] = Fraction(rng.randint(-8, 8), rng.choice(denominators))
    lin = [Fraction(rng.randint(-8, 8), rng.choice(denominators)) for _ in range(d)]
    return QuboProblem.build(quad, lin, Fraction(rng.randint(-5, 5), rng.choice(denominators)))


def _exhaustive_q(g, gamma):
    """min over the admissible family of gamma_d * cut - gamma_n * size."""
    best = None
    for m in range(1, 1 << g.n):
        size = bin(m).count("1")
        if 1 <= size <= g.n // 2:
            val = gamma.denominator * cut_value(g, VertexSubset(g.n, m)) - gamma.numerator * size
            best = val if best is None else min(best, val)
    return best


def test_qubo_evaluate_by_hand():
    # q(x) = 2 x0 x1 - x0 + 3, quadratic written symmetrically.
    q = QuboProblem.build([[0, 1], [1, 0]], [-1, 0], 3)
    assert q.evaluate((0, 0)) == 3
    assert q.evaluate((1, 0)) == 2
    assert q.evaluate((0, 1)) == 3
    assert q.evaluate((1, 1)) == 4


def test_qubo_validation():
    with pytest.raises(TransformError):
        QuboProblem.build([[0, 1], [2, 0]], [0, 0], 0)
    with pytest.raises(TransformError):
        QuboProblem.build([[0]], [0, 0], 0)
    q = QuboProblem.build([[0, 1], [1, 0]], [0, 0], 0)
    with pytest.raises(ValueError):
        q.evaluate((1, 2))


def test_reduction_identity_every_assignment():
    # scale * q(x) = offset - cut(z) must hold pointwise, not just at the
    # optimum; exercise integer, half-integer, and quarter-integer inputs.
    rng = random.Random(11)
    for denoms in ((1,), (1, 2), (1, 2, 4)):
        q = _random_qubo(rng, 5, denominators=denoms)
        red = qubo_to_maxcut(q)
        for bits in itertools.product((0, 1), repeat=5):
            mask = 1 | sum(b << (i + 1) for i, b in enumerate(bits))
            assert red.scale * q.evaluate(bits) == red.offset - cut_weight(red.instance, mask)
            assert red.decode(mask) == bits


def test_reduction_minimum_matches_enumeration():
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(2, 6)
        q = _random_qubo(rng, d)
        red = qubo_to_maxcut(q)
        assert red.scale == 1
        qubo_min = min(
            q.evaluate(bits) for bits in itertools.product((0, 1), repeat=d)
        )
        best_cut = max(cut_weight(red.instance, m) for m in range(1 << red.instance.n))
        assert red.offset - best_cut == qubo_min


def test_unsupported_denominator_rejected():
    q = QuboProblem.build([[0, Fraction(1, 3)], [Fraction(1, 3), 0]], [0, 0], 0)
    with pytest.raises(TransformError, match="scale"):
        qubo_to_maxcut(q)


def test_maxcut_instance_validation():
    with pytest.raises(ValueError):
        MaxCutInstance.build([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        MaxCutInstance.build([[1, 2], [2, 0]])
    inst = MaxCutInstance.build([[0, 3, -1], [3, 0, 2], [-1, 2, 0]])
    assert cut_weight(inst, 0b001) == 3 - 1
    assert cut_weight(inst, 0b011) == -1 + 2


def test_bisection_instance_known_small_case():
    # Path on three vertices, k = 1, upper bound 1: anchor weights 5,
    # edge weights 4, non-edge weight 5, offset 20, max cut 19.
    red = bisection_to_maxcut(path(3), 1, 1)
    w = red.instance.weights
    assert [w[0][i] for i in (1, 2, 3)] == [5, 5, 5]
    assert (w[1][2], w[2][3], w[1][3]) == (4, 4, 5)
    assert red.offset == 20
    best = max(cut_weight(red.instance, m) for m in range(1 << 4))
    assert best == 19
    assert red.offset - best == 1


def test_bisection_closed_form_equals_generic_route():
    for g in (path(3), path(5), cycle(6), complete(5), gnp(8, 0.4, seed=2)):
        for k in range(1, g.n // 2 + 1):
            ub, _ = brute_force_bisection(g, k)
            gen = qubo_to_maxcut(bisection_to_qubo(g, k, ub))
            closed = bisection_to_maxcut(g, k, ub)
            assert gen.scale == 1
            assert gen.instance == closed.instance
            assert gen.offset == closed.offset


def test_bisection_optimum_and_side_cardinality():
    g = cycle(6)
    for k in (1, 2, 3):
        exact, _ = brute_force_bisection(g, k)
        red = bisection_to_maxcut(g, k, exact)
        nn = red.instance.n
        best = max(cut_weight(red.instance, m) for m in range(1 << nn))
        assert red.offset - best == exact
        for m in range(1 << nn):
            if cut_weight(red.instance, m) == best:
                subset = red.decode_subset(m)
                assert subset.size == k
                assert cut_value(g, subset) == exact


def test_bisection_penalty_separates_infeasible_assignments():
    # On the cardinality shell the objective is the plain cut; off the
    # shell it clears the penalty 4u + 1, which exceeds every feasible
    # value, so minimizers are always feasible.
    g = cycle(6)
    k = 2
    ub, _ = brute_force_bisection(g, k)
    q = bisection_to_qubo(g, k, ub)
    for bits in itertools.product((0, 1), repeat=6):
        value = q.evaluate(bits)
        if sum(bits) == k:
            mask = sum(b << i for i, b in enumerate(bits))
            assert value == cut_value(g, VertexSubset(6, mask))
        else:
            assert value >= 4 * ub + 1


def test_slack_weights_cover_size_window():
    assert slack_weights(3) == ()
    assert slack_weights(4) == (1,)
    assert slack_weights(7) == (1, 2)
    assert slack_weights(12) == (1, 2, 4)
    assert slack_weights(16) == (1, 2, 4)
    for n in range(3, 20):
        v = slack_weights(n)
        s = n // 2
        assert sum(v) >= s - 1


def test_ratio_closed_form_equals_generic_route():
    gammas = [Fraction(0), Fraction(1), Fraction(2, 3), Fraction(5, 7), Fraction(3)]
    for g in (path(3), path(4), cycle(5), cycle(6), gnp(7, 0.5, seed=1)):
        for gamma in gammas:
            gen = qubo_to_maxcut(dinkelbach_to_qubo(g, gamma))
            closed = dinkelbach_to_maxcut(g, gamma)
            assert gen.scale == 1
            assert gen.instance == closed.instance
            assert gen.offset == closed.offset


def test_ratio_instance_exact_for_every_gamma():
    # offset - maxcut equals the constrained minimum for any nonnegative
    # gamma, not only at iterates of the ratio search.
    gammas = [Fraction(0), Fraction(1, 7), Fraction(2, 3), Fraction(1), Fraction(4)]
    for g in (path(3), path(4), cycle(5), cycle(6)):
        for gamma in gammas:
            red = dinkelbach_to_maxcut(g, gamma)
            best = max(cut_weight(red.instance, m) for m in range(1 << red.instance.n))
            assert red.offset - best == _exhaustive_q(g, gamma)


def test_decode_keeps_graph_vertices_on_the_anchor_side():
    # Both encodings decode alike: graph vertex i is in S exactly when
    # instance vertex i + 1 shares the anchor's side; slack bits are dropped.
    g = cycle(6)
    for red in (bisection_to_maxcut(g, 2, 2), dinkelbach_to_maxcut(g, Fraction(2, 3))):
        for m in range(1 << red.instance.n):
            expected = [i for i in range(g.n) if (m >> (i + 1) & 1) == (m & 1)]
            assert red.decode_subset(m) == VertexSubset.from_indices(g.n, expected)


def test_ratio_rejects_negative_gamma():
    with pytest.raises(ValueError):
        dinkelbach_to_maxcut(cycle(5), Fraction(-1, 2))


def test_penalty_weight_grows_with_gamma():
    g = cycle(6)
    assert penalty_weight(g, Fraction(0)) == 3
    assert penalty_weight(g, Fraction(1)) == 6 + 2 + 1
    assert penalty_weight(g, Fraction(2, 3)) == 2 * 6 + 3 * 2 + 1


def test_instance_dump_round_trip():
    red = bisection_to_maxcut(path(3), 1, Fraction(1))
    text = dump_instance(red.instance, comment="path bisection")
    assert text.startswith("# path bisection\n4 ")
    again = load_instance(text)
    assert again == red.instance


def test_instance_dump_skips_zero_weights():
    inst = MaxCutInstance.build([[0, 5, 0], [5, 0, -2], [0, -2, 0]])
    text = dump_instance(inst)
    assert text == "3 2\n1 2 5\n2 3 -2\n"
    assert load_instance(text) == inst


def test_load_instance_reports_line_numbers():
    with pytest.raises(TransformError, match="line 3"):
        load_instance("3 2\n1 2 5\n1 2 7\n")
    # A zero-weight first row still counts as seen, in either orientation.
    with pytest.raises(TransformError, match="line 3: duplicate pair 1 2"):
        load_instance("3 3\n1 2 0\n1 2 5\n2 3 1\n")
    with pytest.raises(TransformError, match="line 3: duplicate pair 2 1"):
        load_instance("3 2\n1 2 0\n2 1 4\n")
    with pytest.raises(TransformError, match="line 2"):
        load_instance("3 1\n1 4 2\n")
    with pytest.raises(TransformError, match="announces"):
        load_instance("3 2\n1 2 5\n")
    with pytest.raises(TransformError, match="empty"):
        load_instance("# nothing here\n")


def test_load_instance_refuses_oversized_header_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TransformError, match="exceed"):
            load_instance("3000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(TransformError, match=f"relaxation cap {DIMENSION_CAP}"):
        load_instance(f"{DIMENSION_CAP + 1} 0\n")
    inst = load_instance(f"{DIMENSION_CAP} 1\n1 {DIMENSION_CAP} 7\n")
    assert inst.n == DIMENSION_CAP
