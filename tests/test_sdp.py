"""Tests for the dense interior-point kernel and its problem types."""

import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger import bounds, maxcut, sdp
from cheeger.graphs import (
    VertexSubset,
    brute_force_bisection,
    complete,
    cut_value,
    cycle,
    gnp,
    laplacian,
)
from cheeger.dinkelbach import dinkelbach_solve
from cheeger.maxcut import _signed_laplacian, enumerate_maxcut, solve_maxcut
from cheeger.sdp import (
    CERTIFICATE_SLACK,
    DIMENSION_CAP,
    BisectionSdp,
    DenseSdp,
    SdpError,
    UnitDiagonalSdp,
    _cho_solve,
    _cholesky,
    _eigh,
    _solve_lower,
    sdp_solve,
)
from cheeger.split_bound import split_and_bound
from cheeger.transforms import MaxCutInstance


def _row(d, entries):
    """The symmetric A with <A, X> = sum of c X_ij over (i, j, c), each
    unordered pair listed once."""
    a = np.zeros((d, d))
    for i, j, coeff in entries:
        a[i, j] += coeff / 2.0
        a[j, i] += coeff / 2.0
    return a


def _dense(c, rows):
    """DenseSdp from (A_i, b_i) pairs."""
    mats, rhs = zip(*rows)
    return DenseSdp(c, np.array(mats), rhs)


def _unit_diagonal_rows(c):
    """diag(X) = 1 as n dense rows."""
    n = c.shape[0]
    return _dense(c, [(_row(n, [(i, i, 1.0)]), 1.0) for i in range(n)])


def _global_expansion_problem(g):
    """min <L, X>, tr X = 1, 1 <= <J, X> <= n/2, X PSD, with two slacks."""
    n = g.n
    d = n + 2
    c = np.zeros((d, d))
    c[:n, :n] = laplacian(g)
    j = np.zeros((d, d))
    j[:n, :n] = 1.0
    return _dense(c, [
        (_row(d, [(i, i, 1.0) for i in range(n)]), 1.0),
        (j + _row(d, [(n, n, -1.0)]), 1.0),
        (j + _row(d, [(n + 1, n + 1, 1.0)]), n / 2.0),
    ])


def _bisection_objective(g):
    c = np.zeros((g.n + 1, g.n + 1))
    c[1:, 1:] = laplacian(g)
    return c


def _dense_bisection_problem(c, k):
    """The unreduced bisection rows over X = [[1, x^T], [x, Y]], densely:
    X_00 = 1, tr Y = k, <J, Y> = k^2 and X_ii = X_0i."""
    d = c.shape[0]
    j = np.zeros((d, d))
    j[1:, 1:] = 1.0
    rows = [
        (_row(d, [(0, 0, 1.0)]), 1.0),
        (_row(d, [(i, i, 1.0) for i in range(1, d)]), float(k)),
        (j, float(k * k)),
    ]
    rows += [(_row(d, [(i, i, 1.0), (0, i, -1.0)]), 0.0) for i in range(1, d)]
    return _dense(c, rows)


def _dense_face_problem(c, k):
    """The rows of BisectionSdp written out densely, in the same order:
    <J, W> = k^2 and k W_ii - (W e)_i = 0."""
    n = c.shape[0]
    rows = [(np.ones((n, n)), float(k * k))]
    rows += [(_row(n, [(i, i, float(k))] + [(i, j, -1.0) for j in range(n)]), 0.0)
             for i in range(n)]
    return _dense(c, rows)


def test_min_trace_is_one():
    sol = sdp_solve(DenseSdp(np.eye(3), np.eye(3)[None], [1.0]))
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-6
    assert abs(sol.dual_obj - 1.0) < 1e-6


def test_global_relaxation_matches_eigenvalue_oracle():
    # The relaxation optimum equals lambda_2(L)/2; check against a direct
    # eigensolve on a few structured graphs.
    for g in (complete(4), complete(5), cycle(5), cycle(6)):
        lam2 = np.sort(np.linalg.eigvalsh(laplacian(g)))[1]
        sol = sdp_solve(_global_expansion_problem(g))
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(lam2 / 2.0, abs=1e-6)


def test_bisection_relaxation_bounds_true_bisection():
    g = cycle(6)
    k = 3
    exact, _ = brute_force_bisection(g, k)
    for prob in (BisectionSdp(laplacian(g), k),
                 _dense_bisection_problem(_bisection_objective(g), k)):
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert sol.primal_obj <= exact + 1e-6
        assert sol.primal_obj > 1.0  # strong enough to round up to the optimum
        assert int(np.ceil(sol.primal_obj - 1e-6)) == exact


def test_certified_bound_is_safe_even_when_stopped_early(monkeypatch):
    # lambda_2(K4)/2 = 2; any dual certificate must stay at or below it.
    prob = _global_expansion_problem(complete(4))
    for iters in (2, 4, 100):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", iters)
        sol = sdp_solve(prob)
        assert sol.certified_lower_bound(1.0) <= 2.0 + 1e-9


def test_certified_bound_below_primal_on_random_graphs():
    for seed in range(5):
        g = gnp(8, 0.5, seed=seed)
        sol = sdp_solve(_global_expansion_problem(g))
        cert = sol.certified_lower_bound(1.0)
        assert cert <= sol.primal_obj + 1e-7
        lam2 = np.sort(np.linalg.eigvalsh(laplacian(g)))[1]
        assert cert <= lam2 / 2.0 + 1e-9


def test_maxcut_relaxation_value():
    # max (1/4)<L, X> with unit diagonal on an odd cycle has value
    # n/4 * lambda_max(L); solved as a minimization of the negation.
    g = cycle(5)
    lam_max = np.max(np.linalg.eigvalsh(laplacian(g)))
    sol = sdp_solve(_unit_diagonal_rows(-laplacian(g) / 4.0))
    assert sol.status == "optimal"
    assert -sol.primal_obj == pytest.approx(5.0 * lam_max / 4.0, abs=1e-6)


def _node_objective(rng, n, triangles):
    """A max-cut node objective: quarter Laplacian plus dualized triangles."""
    w = np.triu(rng.integers(-20, 21, size=(n, n)), 1)
    obj = _signed_laplacian((w + w.T).tolist()) / 4.0
    for _ in range(triangles):
        i, j, k = sorted(rng.choice(n, 3, replace=False))
        g_val = float(rng.random())
        for a, b, sign in ((i, j, 1), (i, k, -1), (j, k, -1)):
            obj[a, b] += g_val * sign / 2.0
            obj[b, a] += g_val * sign / 2.0
    return obj


# Agreement between the elementwise unit-diagonal rows with their
# feasible start and the dense rows with their infeasible start, fixed
# before the unit-diagonal problem type was written: both converge to the
# same relaxation value to about SDP_TOL relative.
UNIT_AGREEMENT_TOL = 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_unit_diagonal_bound_agrees_with_generic_rows(seed, monkeypatch):
    # UnitDiagonalSdp and the dense rows diag(X) = 1 certify the same
    # node bound, and a unit-diagonal solve cut short after 3 iterations
    # still certifies a valid one.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 26))
    obj = _node_objective(rng, n, triangles=0 if seed % 2 else 3 * n)
    generic = sdp_solve(_unit_diagonal_rows(-obj))
    unit = sdp_solve(UnitDiagonalSdp(-obj))
    assert generic.status == unit.status == "optimal"
    bound = generic.certified_lower_bound(n)
    assert abs(unit.certified_lower_bound(n) - bound) <= UNIT_AGREEMENT_TOL * (1.0 + abs(bound))

    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    short = sdp_solve(UnitDiagonalSdp(-obj))
    assert short.status == "max_iterations"
    assert short.iterations == 3
    slack_eig = np.linalg.eigvalsh(-obj - np.diag(short.y))[0]
    assert short.dual_slack_min_eig == pytest.approx(slack_eig, abs=1e-9 * (1.0 + abs(bound)))
    assert short.dual_obj == pytest.approx(short.y.sum(), rel=1e-12)
    assert short.certified_lower_bound(n) <= generic.primal_obj + UNIT_AGREEMENT_TOL * (
        1.0 + abs(bound)
    )


@st.composite
def _maxcut_weights(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pairs = n * (n - 1) // 2
    vals = draw(st.lists(st.integers(-20, 20), min_size=pairs, max_size=pairs))
    shift = draw(st.sampled_from((0, 20, 40)))
    w = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = next(it) << shift
    return w


@settings(max_examples=60, deadline=None)
@given(_maxcut_weights())
def test_unit_diagonal_bound_stays_above_the_maximum_cut(w):
    # The node bound, at every weight scale the penalized encodings
    # reach, never cuts off the true maximum cut.
    n = len(w)
    sol = sdp_solve(UnitDiagonalSdp(-_signed_laplacian(w) / 4.0))
    assert -sol.certified_lower_bound(float(n)) >= enumerate_maxcut(w)[0]


def test_nan_objective_raises():
    # No iterate is usable, so there is no certificate to fall back on.
    obj = np.eye(4)
    obj[1, 2] = obj[2, 1] = np.nan
    for prob in (UnitDiagonalSdp(obj), _unit_diagonal_rows(obj), BisectionSdp(obj, 2)):
        with pytest.raises(SdpError, match="no usable point"):
            sdp_solve(prob)


def test_overflowing_objective_raises_before_iterating(bounded):
    # Past about 1e154 the Frobenius norm that scales the objective
    # overflows; the solve refuses the problem up front, without warnings.
    # One vertex above the leaf size, the engine bounds its root.
    n = maxcut.LEAF_SIZE + 1
    rng = np.random.default_rng(520)
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = int(rng.integers(-5, 6)) << 520
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SdpError, match="overflows"):
            sdp_solve(UnitDiagonalSdp(np.full((3, 3), 1e160)))
        with pytest.raises(SdpError, match="overflows"):
            solve_maxcut(MaxCutInstance.build(w))
    assert bounded == [0]


def test_slack_rows_enforce_inequalities():
    # min X_00 with X_00 >= 3 and X_11 <= 5 on a diagonal-only problem,
    # as X_00 - s1 = 3 and X_11 + s2 = 5 with the slacks on the diagonal.
    obj = np.zeros((4, 4))
    obj[0, 0] = 1.0
    sol = sdp_solve(_dense(obj, [
        (_row(4, [(0, 0, 1.0), (2, 2, -1.0)]), 3.0),
        (_row(4, [(1, 1, 1.0), (3, 3, 1.0)]), 5.0),
    ]))
    assert sol.status == "optimal"
    assert sol.primal_obj == pytest.approx(3.0, abs=1e-6)
    assert sol.x[1, 1] <= 5.0 + 1e-6


def _mixed_rows_problem():
    """Few-entry and full rows, each with and without a slack entry."""
    rng = np.random.default_rng(11)
    dense = np.zeros((7, 7))
    dense[:5, :5] = _symmetric(rng, 5)
    c = np.zeros((7, 7))
    c[:5, :5] = _symmetric(rng, 5)
    return _dense(c, [
        (_row(7, [(0, 0, 1.0), (1, 3, -2.0)]), 1.0),
        (dense, 0.5),
        (_row(7, [(2, 2, 1.0), (0, 4, 1.0), (5, 5, 1.0)]), 3.0),
        (dense.T @ dense + _row(7, [(6, 6, -1.0)]), 1.0),
    ])


def _bisection_pair(n, k):
    """BisectionSdp and its dense rows on G(n, 0.5)."""
    c = laplacian(gnp(n, 0.5, seed=3))
    return BisectionSdp(c, k), _dense_face_problem(c, k)


@pytest.mark.parametrize("case", ["global", "bisection", "arrow", "mixed"])
def test_schur_matches_brute_force(case):
    prob, ref_prob = {
        "global": lambda: (_global_expansion_problem(gnp(7, 0.5, seed=3)),) * 2,
        "bisection": lambda: (
            _dense_bisection_problem(_bisection_objective(gnp(7, 0.5, seed=3)), 3),
        ) * 2,
        "arrow": lambda: _bisection_pair(7, 3),
        "mixed": lambda: (_mixed_rows_problem(),) * 2,
    }[case]()
    rng = np.random.default_rng(len(prob.rhs))
    z_inv = np.linalg.inv(_spd(rng, prob.dim))
    z_inv = (z_inv + z_inv.T) / 2.0
    x = _spd(rng, prob.dim)
    mats = ref_prob.rows
    ref = np.array([[np.trace(a_i @ z_inv @ a_j @ x) for a_j in mats] for a_i in mats])
    got = prob.schur(z_inv, x)
    assert np.array_equal(got, got.T)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_unit_diagonal_operators_match_generic_rows(n):
    rng = np.random.default_rng(n)
    generic = _unit_diagonal_rows(np.zeros((n, n)))
    unit = UnitDiagonalSdp(np.zeros((n, n)))
    x = _symmetric(rng, n)
    y = rng.standard_normal(n)
    y[0] = 0.0
    z_inv = np.linalg.inv(_spd(rng, n))
    z_inv = (z_inv + z_inv.T) / 2.0
    spd = _spd(rng, n)
    assert np.array_equal(unit.rhs, generic.rhs)
    assert np.array_equal(unit.op_a(x), generic.op_a(x))
    assert np.array_equal(unit.op_at(y), generic.op_at(y))
    assert np.array_equal(unit.schur(z_inv, spd), generic.schur(z_inv, spd))


@pytest.mark.parametrize("n", [3, 4, 9, 20])
def test_bisection_operators_match_dense_rows(n):
    # Integer data keep every sum exact, so the structured operators must
    # equal the dense rows' bit for bit, on unsymmetric input too (the
    # iteration applies A to unsymmetric matrices).
    rng = np.random.default_rng(n)
    k = int(rng.integers(1, n // 2 + 1))
    face, dense = _bisection_pair(n, k)
    x = rng.integers(-9, 10, size=(n, n)).astype(float)
    y = rng.integers(-9, 10, size=n + 1).astype(float)
    assert np.array_equal(face.rhs, dense.rhs)
    assert np.array_equal(face.op_a(x), dense.op_a(x))
    assert np.array_equal(face.op_at(y), dense.op_at(y))
    z_inv = np.linalg.inv(_spd(rng, n))
    z_inv = (z_inv + z_inv.T) / 2.0
    spd = _spd(rng, n)
    got = face.schur(z_inv, spd)
    ref = dense.schur(z_inv, spd)
    assert np.array_equal(got, got.T)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("n, k", [(3, 1), (7, 3), (20, 1), (20, 10), (41, 20)])
def test_bisection_start_is_strictly_feasible(n, k):
    prob = BisectionSdp(laplacian(gnp(n, 0.8, seed=n)), k)
    w, y, z = prob.start(prob.c)
    assert np.allclose(prob.op_a(w), prob.rhs, rtol=0.0, atol=1e-12 * k * k)
    assert np.linalg.eigvalsh(w)[0] > 0.0
    assert np.array_equal(prob.c - prob.op_at(y), z)
    assert np.linalg.eigvalsh(z)[0] > 0.0


def test_face_map_is_exact_on_every_subset():
    # W = chi_S chi_S^T is the face image of the rank-one point
    # X = (1, chi_S)(1, chi_S)^T of the unreduced relaxation: it meets the
    # reduced rows exactly, lifts through V = [e^T/k ; I] to X, and its
    # objective is cut(S).
    g = gnp(8, 0.5, seed=4)
    lap = laplacian(g)
    for k in range(1, g.n // 2 + 1):
        face = BisectionSdp(lap, k)
        unreduced = _dense_bisection_problem(_bisection_objective(g), k)
        v = np.vstack((np.full(g.n, 1.0 / k), np.eye(g.n)))
        for members in itertools.combinations(range(g.n), k):
            chi = np.zeros(g.n)
            chi[list(members)] = 1.0
            w = np.outer(chi, chi)
            assert np.array_equal(face.op_a(w), face.rhs)
            assert np.vdot(lap, w) == cut_value(g, VertexSubset.from_indices(g.n, members))
            x = v @ w @ v.T
            point = np.concatenate(([1.0], chi))
            assert np.allclose(x, np.outer(point, point), rtol=0.0, atol=1e-12)
            assert np.allclose(unreduced.op_a(x), unreduced.rhs, rtol=0.0, atol=1e-12 * k * k)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 11), st.sampled_from((0.3, 0.5, 0.8)), st.integers(0, 10**6))
def test_cheap_bound_equals_the_dense_rows_fraction(n, p, seed):
    g = gnp(n, p, seed=seed)
    c = _bisection_objective(g)
    for k in range(1, n // 2 + 1):
        cert = sdp_solve(_dense_bisection_problem(c, k)).certified_lower_bound(1.0 + k)
        ref = Fraction(max(1, math.ceil(cert - CERTIFICATE_SLACK)), k)
        assert bounds.cheap_bisection_bound(g, k) == ref


def test_dimension_cap_enforced():
    d = DIMENSION_CAP + 1
    for prob in (DenseSdp(np.eye(d), np.eye(d)[None], [1.0]), BisectionSdp(np.eye(d), 1)):
        with pytest.raises(SdpError, match=f"dimension {d} exceeds cap {DIMENSION_CAP}"):
            sdp_solve(prob)


# -- direct LAPACK helpers ---------------------------------------------------


def _symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@pytest.mark.parametrize("n", range(1, 41))
def test_helpers_equal_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    sym = _symmetric(rng, n)
    spd = _spd(rng, n)
    rhs = rng.standard_normal((n, n))
    for a in (sym, spd):
        vals, vecs = _eigh(a)
        ref_vals, ref_vecs = scipy.linalg.eigh(a)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)
        assert np.array_equal(_eigh(a, vectors=False), scipy.linalg.eigh(a, eigvals_only=True))
    low = _cholesky(spd)
    assert np.array_equal(low, scipy.linalg.cholesky(spd, lower=True))
    for b in (rhs, rhs.T, rhs[:, :1]):
        assert np.array_equal(
            _solve_lower(low, b), scipy.linalg.solve_triangular(low, b, lower=True)
        )
    fact = _cholesky(spd, clean=False)
    ref_fact = scipy.linalg.cho_factor(spd, lower=True)
    assert np.array_equal(fact, ref_fact[0])
    for b in (rhs, rhs[:, 0]):
        assert np.array_equal(_cho_solve(fact, b), scipy.linalg.cho_solve(ref_fact, b))


def _raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # the class is what the tests compare
        return type(exc)
    return None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_helpers_raise_like_scipy_on_non_finite_input(bad):
    rng = np.random.default_rng(3)
    spd = _spd(rng, 6)
    low = scipy.linalg.cholesky(spd, lower=True)
    poisoned = spd.copy()
    poisoned[2, 4] = poisoned[4, 2] = bad
    rhs = rng.standard_normal((6, 2))
    rhs[1, 1] = bad
    cases = [
        (_eigh, (poisoned,), {}, scipy.linalg.eigh, (poisoned,), {}),
        (_eigh, (poisoned,), {"vectors": False},
         scipy.linalg.eigh, (poisoned,), {"eigvals_only": True}),
        (_cholesky, (poisoned,), {}, scipy.linalg.cholesky, (poisoned,), {"lower": True}),
        (_cholesky, (poisoned,), {"clean": False},
         scipy.linalg.cho_factor, (poisoned,), {"lower": True}),
        (_solve_lower, (low, rhs), {},
         scipy.linalg.solve_triangular, (low, rhs), {"lower": True}),
        (_cho_solve, (low, rhs), {}, scipy.linalg.cho_solve, ((low, True), rhs), {}),
    ]
    for fn, args, kwargs, ref, ref_args, ref_kwargs in cases:
        expected = _raised(ref, *ref_args, **ref_kwargs)
        assert expected is ValueError
        assert _raised(fn, *args, **kwargs) is expected


def test_helpers_raise_like_scipy_on_indefinite_and_singular_input():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 20):
        indefinite = _spd(rng, n)
        indefinite[n - 1, n - 1] = -1.0
        expected = _raised(scipy.linalg.cholesky, indefinite, lower=True)
        assert expected is np.linalg.LinAlgError
        assert _raised(_cholesky, indefinite) is expected
        assert _raised(_cholesky, indefinite, clean=False) is expected
        singular = np.tril(rng.standard_normal((n, n)))
        singular[n // 2, n // 2] = 0.0
        singular = np.asfortranarray(singular)
        rhs = rng.standard_normal((n, 3))
        expected = _raised(scipy.linalg.solve_triangular, singular, rhs, lower=True)
        assert expected is np.linalg.LinAlgError
        assert _raised(_solve_lower, singular, rhs) is expected


# -- pinned solver outputs ---------------------------------------------------


def _solution_digest(solutions) -> str:
    """SHA-256 over every array and scalar a caller can read from a solve."""
    h = hashlib.sha256()
    for sol in solutions:
        for arr in (sol.x, sol.y, sol.z):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(
            repr(
                (
                    sol.primal_obj,
                    sol.dual_obj,
                    sol.dual_slack_min_eig,
                    sol.rel_gap,
                    sol.primal_res,
                    sol.dual_res,
                    sol.iterations,
                    sol.status,
                )
            ).encode()
        )
    return h.hexdigest()


def _pinned_unit_solutions(monkeypatch):
    out = []
    rng = np.random.default_rng(2024)
    for case in range(10):
        n = int(rng.integers(5, 34))
        obj = _node_objective(rng, n, triangles=0 if case % 2 else 3 * n)
        for iters in (4, 60):
            monkeypatch.setattr(sdp, "MAX_ITERATIONS", iters)
            out.append(sdp_solve(UnitDiagonalSdp(-obj)))
    return out


def _pinned_generic_solutions(monkeypatch):
    out = []
    for seed in range(3):
        g = gnp(9, 0.5, seed=seed)
        out.append(sdp_solve(_global_expansion_problem(g)))
        out.append(sdp_solve(BisectionSdp(laplacian(g), 4)))

    def recording_solve(prob, **kwargs):
        sol = sdp_solve(prob, **kwargs)
        out.append(sol)
        return sol

    monkeypatch.setattr(bounds, "sdp_solve", recording_solve)
    for g in (cycle(6), gnp(7, 0.5, seed=1), gnp(8, 0.5, seed=2)):
        bounds.global_sdp_bound(g)
        bounds.cheap_bisection_bound(g, 3)
    return out


PINNED_GENERIC_SOLVES = 12
PINNED_GENERIC_DIGEST = "6d582b570b7624de63459dc6150696b32a816d2494fbe9fd1ba9cbc7a9e34337"
PINNED_UNIT_SOLVES = 20
PINNED_UNIT_DIGEST = "f57bdf440c8943fec89e9f9d3553fb1f963e685cdf851b376bb9f2c073fa476f"
RUNAWAY_BOUND = 34929.1129610346


def test_solver_outputs_are_pinned(monkeypatch):
    # Every problem type runs the one XZ predictor-corrector; the digests
    # hold the outputs of its infeasible (dense rows) and feasible (face
    # and unit-diagonal) start paths, and of the settled stop, bit for bit.
    generic = _pinned_generic_solutions(monkeypatch)
    assert len(generic) == PINNED_GENERIC_SOLVES
    assert _solution_digest(generic) == PINNED_GENERIC_DIGEST
    unit = _pinned_unit_solutions(monkeypatch)
    assert len(unit) == PINNED_UNIT_SOLVES
    assert _solution_digest(unit) == PINNED_UNIT_DIGEST


def _runaway_problem():
    """X_01 = 1 with X_00 = 0 has no PSD solution, so the dual runs away."""
    return _dense(np.eye(2), [(_row(2, [(0, 1, 1.0)]), 1.0), (_row(2, [(0, 0, 1.0)]), 0.0)])


def test_runaway_dual_keeps_status_and_certificate():
    # Z stops being numerically positive definite at iteration 25; the
    # failed Cholesky factor turns that into numerical_failure with the
    # best iterate.  The problem is primal infeasible, so any finite
    # certificate is a valid bound.
    sol = sdp_solve(_runaway_problem())
    assert sol.status == "numerical_failure"
    assert sol.iterations == 25
    assert np.isfinite(sol.certified_lower_bound(1.0))
    assert sol.certified_lower_bound(1.0) == RUNAWAY_BOUND


def test_solves_of_both_exact_methods_stop_before_the_cap(monkeypatch):
    # One iteration cap serves every problem type because real solves end
    # "optimal" or "settled" well before it; a status of max_iterations
    # here means MAX_ITERATIONS now cuts off a solve that used to finish.
    statuses = {}

    def recording(module, key):
        solve = module.sdp_solve

        def recording_solve(prob, **kwargs):
            sol = solve(prob, **kwargs)
            statuses.setdefault(key, []).append(sol.status)
            return sol

        monkeypatch.setattr(module, "sdp_solve", recording_solve)

    recording(bounds, "cheap")
    recording(maxcut, "node")
    assert split_and_bound(gnp(24, 0.2, seed=2)).status == "solved"
    assert dinkelbach_solve(gnp(20, 0.3, seed=9)).status == "solved"
    assert statuses["cheap"] and statuses["node"]
    for key, seen in statuses.items():
        assert set(seen) <= {"optimal", "settled"}, key
