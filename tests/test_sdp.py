"""Tests for the dense interior-point kernel and problem builder."""

import hashlib

import numpy as np
import pytest
import scipy.linalg

from cheeger import bounds
from cheeger.graphs import brute_force_bisection, complete, cycle, gnp, laplacian
from cheeger.maxcut import _signed_laplacian
from cheeger.sdp import (
    Constraint,
    SdpBuilder,
    SdpError,
    SdpProblem,
    UnitDiagonalSdp,
    _cho_solve,
    _cholesky,
    _eigh,
    _solve_lower,
    sdp_solve,
)


def _global_expansion_problem(g):
    """min <L, X>, tr X = 1, 1 <= <J, X> <= n/2, X PSD."""
    n = g.n
    bld = SdpBuilder(n)
    bld.add_eq([(i, i, 1.0) for i in range(n)], 1.0)
    j = np.ones((n, n))
    bld.add_lower(j, 1.0)
    bld.add_upper(j, n / 2.0)
    return bld.build(laplacian(g))


def _bisection_problem(g, k):
    """Arrow-structured relaxation of the cardinality-k bisection."""
    n = g.n
    d = n + 1
    bld = SdpBuilder(d)
    obj = np.zeros((d, d))
    obj[1:, 1:] = laplacian(g)
    bld.add_eq([(0, 0, 1.0)], 1.0)
    bld.add_eq([(i, i, 1.0) for i in range(1, d)], float(k))
    jmat = np.zeros((d, d))
    jmat[1:, 1:] = 1.0
    bld.add_eq(jmat, float(k * k))
    for i in range(1, d):
        bld.add_eq([(i, i, 1.0), (0, i, -1.0)], 0.0)
    return bld.build(obj)


def test_min_trace_is_one():
    bld = SdpBuilder(3)
    bld.add_eq([(i, i, 1.0) for i in range(3)], 1.0)
    sol = sdp_solve(bld.build(np.eye(3)))
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-6
    assert abs(sol.dual_obj - 1.0) < 1e-6


def test_global_relaxation_matches_eigenvalue_oracle():
    # The relaxation optimum equals lambda_2(L)/2; check against a direct
    # eigensolve on a few structured graphs.
    for g in (complete(4), complete(5), cycle(5), cycle(6)):
        lam2 = np.sort(np.linalg.eigvalsh(laplacian(g)))[1]
        sol = sdp_solve(_global_expansion_problem(g), tol=1e-8)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(lam2 / 2.0, abs=1e-6)


def test_bisection_relaxation_bounds_true_bisection():
    g = cycle(6)
    k = 3
    exact, _ = brute_force_bisection(g, k)
    sol = sdp_solve(_bisection_problem(g, k), tol=1e-8)
    assert sol.status == "optimal"
    assert sol.primal_obj <= exact + 1e-6
    assert sol.primal_obj > 1.0  # strong enough to round up to the optimum
    assert int(np.ceil(sol.primal_obj - 1e-6)) == exact


def test_certified_bound_is_safe_even_when_stopped_early():
    # lambda_2(K4)/2 = 2; any dual certificate must stay at or below it.
    prob = _global_expansion_problem(complete(4))
    for iters in (2, 4, 100):
        sol = sdp_solve(prob, max_iterations=iters)
        assert sol.certified_lower_bound(1.0) <= 2.0 + 1e-9


def test_certified_bound_below_primal_on_random_graphs():
    for seed in range(5):
        g = gnp(8, 0.5, seed=seed)
        sol = sdp_solve(_global_expansion_problem(g), tol=1e-8)
        cert = sol.certified_lower_bound(1.0)
        assert cert <= sol.primal_obj + 1e-7
        lam2 = np.sort(np.linalg.eigvalsh(laplacian(g)))[1]
        assert cert <= lam2 / 2.0 + 1e-9


def test_maxcut_relaxation_value():
    # max (1/4)<L, X> with unit diagonal on an odd cycle has value
    # n/4 * lambda_max(L); solved as a minimization of the negation.
    g = cycle(5)
    lam_max = np.max(np.linalg.eigvalsh(laplacian(g)))
    bld = SdpBuilder(5)
    for i in range(5):
        bld.add_eq([(i, i, 1.0)], 1.0)
    sol = sdp_solve(bld.build(-laplacian(g) / 4.0), tol=1e-8)
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


@pytest.mark.parametrize("seed", range(8))
def test_unit_diagonal_operator_is_bit_identical(seed):
    # The elementwise operator must reproduce the generic diagonal rows
    # exactly: every iterate, hence every certified node bound.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 26))
    obj = _node_objective(rng, n, triangles=0 if seed % 2 else 3 * n)
    bld = SdpBuilder(n)
    for i in range(n):
        bld.add_eq([(i, i, 1.0)], 1.0)
    for iters in (3, 60):
        generic = sdp_solve(bld.build(-obj), tol=1e-7, max_iterations=iters)
        unit = sdp_solve(UnitDiagonalSdp(-obj), tol=1e-7, max_iterations=iters)
        for field in ("x", "y", "z"):
            assert np.array_equal(getattr(generic, field), getattr(unit, field))
        for field in ("dual_obj", "dual_slack_min_eig", "iterations", "status"):
            assert getattr(generic, field) == getattr(unit, field)
        if iters == 3:
            assert unit.status == "max_iterations"


def test_slack_rows_enforce_inequalities():
    # min X_00 with X_00 >= 3 and X_11 <= 5 on a diagonal-only problem.
    bld = SdpBuilder(2)
    bld.add_lower([(0, 0, 1.0)], 3.0)
    bld.add_upper([(1, 1, 1.0)], 5.0)
    obj = np.zeros((2, 2))
    obj[0, 0] = 1.0
    sol = sdp_solve(bld.build(obj), tol=1e-8)
    assert sol.status == "optimal"
    assert sol.primal_obj == pytest.approx(3.0, abs=1e-6)
    assert sol.x[1, 1] <= 5.0 + 1e-6


def test_sparse_entries_match_dense_matrix():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 4))
    x = x + x.T
    dense = np.zeros((4, 4))
    dense[0, 0] = 2.0
    dense[1, 2] = dense[2, 1] = -1.5
    dense[3, 3] = 0.5
    con = Constraint.from_entries([(0, 0, 2.0), (1, 2, -3.0), (3, 3, 0.5)], 1.0)
    ref = Constraint.from_dense(dense, 1.0)
    assert con.inner(x) == pytest.approx(ref.inner(x), abs=1e-12)
    out_a = np.zeros((4, 4))
    out_b = np.zeros((4, 4))
    con.add_into(out_a, 2.5)
    ref.add_into(out_b, 2.5)
    assert np.allclose(out_a, out_b)


def test_dimension_cap_enforced():
    bld = SdpBuilder(10)
    for _ in range(700):
        bld.add_upper([(0, 0, 1.0)], 1.0)
    with pytest.raises(SdpError, match="cap"):
        bld.build(np.eye(10))


def dump_problem(prob: SdpProblem) -> str:
    """Plain-text triplet dump, for debugging by eye or by diff."""
    lines = [f"dim {prob.dim} constraints {len(prob.constraints)}"]
    ii, jj = np.nonzero(prob.c)
    pairs = [(i, j) for i, j in zip(ii, jj) if i <= j]
    lines.append(f"objective nnz {len(pairs)}")
    for i, j in pairs:
        lines.append(f"  0 {i} {j} {prob.c[i, j]:.17g}")
    for idx, con in enumerate(prob.constraints, start=1):
        if con.dense is not None:
            ii, jj = np.nonzero(con.dense)
            trip = [(i, j, con.dense[i, j]) for i, j in zip(ii, jj) if i <= j]
        else:
            trip = [
                (i, j, v if i == j else 2 * v)
                for i, j, v in zip(con.rows, con.cols, con.vals)
                if i <= j
            ]
        lines.append(f"constraint {idx} rhs {con.rhs:.17g} nnz {len(trip)}")
        lines.extend(f"  {idx} {i} {j} {v:.17g}" for i, j, v in trip)
    return "\n".join(lines) + "\n"


def test_problem_dump_mentions_every_row():
    prob = _global_expansion_problem(complete(4))
    text = dump_problem(prob)
    assert text.startswith("dim 6 constraints 3")
    assert text.count("constraint ") == 3


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


def _pinned_solutions(monkeypatch):
    out = []
    rng = np.random.default_rng(2024)
    for case in range(10):
        n = int(rng.integers(5, 34))
        obj = _node_objective(rng, n, triangles=0 if case % 2 else 3 * n)
        for iters in (4, 60):
            out.append(sdp_solve(UnitDiagonalSdp(-obj), tol=1e-7, max_iterations=iters))
    for seed in range(3):
        g = gnp(9, 0.5, seed=seed)
        out.append(sdp_solve(_global_expansion_problem(g), tol=1e-8))
        out.append(sdp_solve(_bisection_problem(g, 4), tol=1e-8))

    def recording_solve(prob, **kwargs):
        sol = sdp_solve(prob, **kwargs)
        out.append(sol)
        return sol

    monkeypatch.setattr(bounds, "sdp_solve", recording_solve)
    for g in (cycle(6), gnp(7, 0.5, seed=1), gnp(8, 0.5, seed=2)):
        bounds.global_sdp_bound(g)
        bounds.cheap_bisection_bound(g, 3)
    return out


PINNED_SOLVES = 32
PINNED_DIGEST = "189afaa677ce69d84fb9d8dc4f91665e4d72e5fc503d6d9c123a4bbb93f7961e"
RUNAWAY_BOUND = 4.415311455090652


def test_solver_outputs_are_pinned(monkeypatch):
    # Every solve but the three global bounds was first recorded before
    # the kernels called LAPACK directly: the direct calls must reproduce
    # every iterate of the scipy-wrapped ones.
    solutions = _pinned_solutions(monkeypatch)
    assert len(solutions) == PINNED_SOLVES
    assert _solution_digest(solutions) == PINNED_DIGEST


def _runaway_problem():
    """X_01 = 1 with X_00 = 0 has no PSD solution, so the dual runs away."""
    bld = SdpBuilder(2)
    bld.add_eq([(0, 1, 1.0)], 1.0)
    bld.add_eq([(0, 0, 1.0)], 0.0)
    return bld.build(np.eye(2))


def test_runaway_dual_keeps_status_and_certificate():
    # The Schur complement overflows at iteration 16; the non-finite
    # check turns that into numerical_failure with the best iterate.
    sol = sdp_solve(_runaway_problem())
    assert sol.status == "numerical_failure"
    assert sol.iterations == 16
    assert sol.certified_lower_bound(1.0) == RUNAWAY_BOUND
