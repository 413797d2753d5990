"""Dense semidefinite programming kernel.

Solves   min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0 (PSD)
with one primal-dual predictor-corrector: the XZ (HKM) direction of
Helmberg, Rendl, Vanderbei & Wolkowicz (SIAM J. Optim. 1996) with a
Mehrotra-style corrector and adaptive centering parameter.  Newton's
step on A(X) = b, A^T y + Z = C, Z X = sigma mu I is
    M dy = rp - A(R) + A(Z^-1 rd X),   M_ij = <A_i, Z^-1 A_j X>,
    dZ = rd - A^T dy,   dX = sym(R - Z^-1 dZ X),
with R = sigma mu Z^-1 - X - Z^-1 dZ_a dX_a (R = -X in the predictor).
M is symmetric, and positive definite whenever X and Z are.

The iteration reads a problem only through five members:
``rhs`` (b), ``op_a`` (X -> A(X)), ``op_at`` (y -> A^T y),
``schur(z_inv, x)`` (the matrix M) and ``start(c)`` (the first
(X, y, Z) for the scaled objective c).  Three problem types supply them:

- ``DenseSdp`` (a few dense rows held as one array) serves the global
  bound and is the tests' reference rows; it starts infeasible at
  (xi I, 0, eta I).
- ``BisectionSdp`` (the cardinality-k bisection on its minimal face,
  rows applied from their structure) serves the cheap per-cardinality
  bound and starts strictly feasible, in closed form.
- ``UnitDiagonalSdp`` (the max-cut rows diag(X) = 1, applied
  elementwise, so M = Z^-1 o X) starts feasible: X = I, and a Gershgorin
  y makes Z = C - Diag(y) positive definite, as in Biq Mac (Rendl,
  Rinaldi & Wiegele, Math. Program. 2010).  This serves every node bound
  of the branch-and-bound engine.

Everything downstream consumes *certified* bounds: for any dual vector y,
    <C, X> >= b.y + min(0, lambda_min(C - A^T y)) * trace_bound
holds for every primal-feasible X whose trace is at most trace_bound, so
a valid bound survives loose convergence or outright solver failure
(Jansson, Chaykin & Keil, SIAM J. Optim. 2007).  Each problem carries
its own ``trace_bound``, and ``_certificate`` is the one place a bound is
formed: ``sdp_solve`` returns it as ``SdpSolution.bound``, reusing the
one that settled the solve.

The kernel is dense and meant for blocks up to a few hundred rows.  Every
solve stops at the module constants ``SDP_TOL`` and ``MAX_ITERATIONS``.

Node problems have a few dozen rows, where scipy's wrappers (input
checks, a workspace query per ``eigh``, batching dispatch) cost more than
the LAPACK work itself.  The kernels therefore call the routines those
wrappers call -- ``dsyevr``, ``dpotrf``, ``dpotrs`` and ``dtrtrs`` --
directly, with the same arguments and workspace sizes, so results are
bit-identical to the wrapped calls.  The wrappers' failures are kept too:
non-finite input raises ``ValueError`` and a nonzero LAPACK ``info``
raises ``LinAlgError``, which the iteration answers as numerical failure.

The routines come from scipy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded from its file on its own.  Importing
``scipy.linalg`` instead costs about 0.3 s, most of it scipy's array-API
layer (``array_api_compat.numpy``), which pulls in ``numpy.f2py``,
``numpy.testing``, ``numpy.ma``, ``numpy.random`` and
``numpy.polynomial``; the kernel uses none of them.  The extension
module is the one ``scipy.linalg.lapack`` re-exports, so ``lapack.dsyevr``
here is the very object ``scipy.linalg.lapack.dsyevr`` is, and results
match ``scipy.linalg`` bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import LinAlgError

log = logging.getLogger(__name__)


def _load_flapack():
    """scipy.linalg._flapack, found and run without importing scipy."""
    (scipy_dir,) = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(scipy_dir, "linalg")]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()

# Hard cap on the block dimension of every problem.
DIMENSION_CAP = 600
# Interior-point stopping tolerance for every bound the package computes.
SDP_TOL = 1e-7
# Iteration cap of every solve; measured solves all stop by 31 iterations.
MAX_ITERATIONS = 60


class SdpError(RuntimeError):
    """Unrecoverable numerical failure inside the kernel."""


class DenseSdp:
    """min <C, X> s.t. <A_i, X> = b_i, X PSD, for a few dense rows.

    ``rows`` holds the symmetric matrices A_i as one (m, d, d) array,
    which costs m d^2 floats: right for a handful of rows only.
    ``trace_bound`` caps tr X over the feasible set (``math.inf`` if
    nothing does).
    """

    def __init__(self, c: np.ndarray, rows: np.ndarray, rhs, trace_bound: float):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]
        self.rows = np.asarray(rows, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.trace_bound = trace_bound
        self._flat = self.rows.reshape(len(self.rhs), -1)

    def op_a(self, x: np.ndarray) -> np.ndarray:
        return self._flat @ x.ravel()

    def op_at(self, y: np.ndarray) -> np.ndarray:
        return (y @ self._flat).reshape(self.dim, self.dim)

    def schur(self, z_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """M_ij = <A_i, Z^-1 A_j X>, one batched product for all columns."""
        prods = (z_inv @ self.rows @ x).reshape(len(self.rhs), -1)
        return _sym(self._flat @ prods.T)

    def start(self, c: np.ndarray):
        """The infeasible (xi I, 0, eta I), sized to b, the row norms and c."""
        n = self.dim
        norms = np.linalg.norm(self._flat, axis=1)
        xi = n * max(1.0, float(np.max((1.0 + np.abs(self.rhs)) / (1.0 + norms))))
        eta = max(1.0, float(np.max(norms)), float(np.linalg.norm(c)))
        return xi * np.eye(n), np.zeros(len(self.rhs)), eta * np.eye(n)


class BisectionSdp:
    """The cardinality-k bisection relaxation on its minimal face.

    The rows X_00 = 1, tr Y = k, <J, Y> = k^2 and X_ii = X_0i over
    X = [[1, x^T], [x, Y]] force X (-k, e) = 0, so every feasible X is
    V W V^T with V = [e^T/k ; I_n] and W = Y PSD of order n (Wolkowicz &
    Zhao, Discrete Appl. Math. 1999).  Over W the n + 1 rows are, in
    order, <J, W> = k^2 and k W_ii - (W e)_i = 0; tr W = k follows.  ``c``
    is the Y block of the objective; rows apply at O(n^2) per call.
    """

    def __init__(self, c: np.ndarray, k: int):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]
        self.k = k
        self.trace_bound = k
        self.rhs = np.concatenate(([float(k * k)], np.zeros(self.dim)))

    def op_a(self, x: np.ndarray) -> np.ndarray:
        # x may be unsymmetric: (W e)_i pairs with its mean row and column sum.
        sums = 0.5 * (x.sum(axis=0) + x.sum(axis=1))
        return np.concatenate(([sums.sum()], self.k * np.diagonal(x) - sums))

    def op_at(self, y: np.ndarray) -> np.ndarray:
        v = y[1:]
        out = y[0] - 0.5 * (v[:, None] + v[None, :])
        out[np.diag_indices(self.dim)] += self.k * v
        return out

    def schur(self, z_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """M_ij = <A_i, W A_j X> with W = Z^-1, A_0 = J and A_i = k E_ii -
        (e_i e^T + e e_i^T)/2: elementwise in W, X, u = W e and s = X e."""
        k, w = self.k, z_inv
        u, s = w.sum(axis=1), x.sum(axis=1)
        su, ss = u.sum(), s.sum()
        mat = np.empty((self.dim + 1, self.dim + 1))
        mat[0, 0] = su * ss
        mat[0, 1:] = mat[1:, 0] = k * u * s - 0.5 * (u * ss + s * su)
        mat[1:, 1:] = (k * k) * w * x - (0.5 * k) * (
            w * (s[:, None] + s[None, :]) + x * (u[:, None] + u[None, :])
        ) + 0.25 * (np.outer(u, s) + np.outer(s, u) + su * x + ss * w)
        return _sym(mat)

    def start(self, c: np.ndarray):
        """Strictly feasible: W = a I + b J, the mean of chi_S chi_S^T over
        the size-k sets S, and y = -t 1, so A^T y = -t k I and Z = c + t k I."""
        n, k = self.dim, self.k
        a = k * (n - k) / (n * (n - 1))
        b = k * (k - 1) / (n * (n - 1))
        t = (1.0 + float(np.linalg.norm(c))) / k
        return a * np.eye(n) + b, np.full(n + 1, -t), c + t * k * np.eye(n)


class UnitDiagonalSdp:
    """min <C, X> s.t. diag(X) = 1, X PSD: the max-cut relaxation.

    The rows diag(X) = 1 act elementwise, so no constraint rows are built,
    and they fix tr X = n.
    """

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]
        self.rhs = np.ones(self.dim)
        self.trace_bound = self.dim

    def op_a(self, x: np.ndarray) -> np.ndarray:
        return np.diagonal(x).copy()

    def op_at(self, y: np.ndarray) -> np.ndarray:
        return np.diag(y)

    def schur(self, z_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
        return z_inv * x

    def start(self, c: np.ndarray):
        """Feasible start: X = I, and a Gershgorin y with Z = c - Diag(y).

        Each row of Z exceeds its off-diagonal absolute sum r by r/10 + 1/n,
        so lambda_min(Z) >= 1/n (the iteration count barely depends on
        these margins).
        """
        n = self.dim
        diag_c = np.diagonal(c)
        off = np.abs(c).sum(axis=1) - np.abs(diag_c)
        y = diag_c - off - (0.1 * off + 1.0 / n)
        return np.eye(n), y, c - np.diag(y)


Problem = DenseSdp | BisectionSdp | UnitDiagonalSdp


@dataclass
class SdpSolution:
    x: np.ndarray
    y: np.ndarray
    bound: float  # the certificate of y, valid whatever the status
    status: str  # optimal | settled | max_iterations | numerical_failure
    iterations: int


# Guard against certificate roundoff when an integer is read off a float
# bound; every pruning and elimination step rounds through these two.
CERTIFICATE_SLACK = 1e-6


def floor_certified(upper: float) -> int:
    """Largest integer that a float upper-bound certificate admits."""
    return math.floor(upper + CERTIFICATE_SLACK)


def ceil_certified(lower: float) -> int:
    """Smallest integer that a float lower-bound certificate admits."""
    return math.ceil(lower - CERTIFICATE_SLACK)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _check_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


@cache
def _syevr_workspace(n: int) -> dict:
    """The dsyevr workspace sizes scipy.linalg.eigh queries on every call,
    read as scipy's ``lapack._compute_lwork`` reads them for float64."""
    lwork, liwork, info = lapack.dsyevr_lwork(n=n, lower=True)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return {"lwork": int(lwork), "liwork": int(liwork)}


def _eigh(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.eigh(a, eigvals_only=True) (lower triangle, LAPACK
    dsyevr), without its overhead."""
    _check_finite(a)
    w, _, _, _, info = lapack.dsyevr(
        a, compute_v=0, lower=True, **_syevr_workspace(a.shape[0])
    )
    if info != 0:
        raise LinAlgError(f"dsyevr failed with info {info}")
    return w


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor as scipy.linalg.cholesky returns it."""
    _check_finite(a)
    c, info = lapack.dpotrf(a, lower=True, clean=True)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve((c, True), b) for a factor from ``_cholesky``.

    Only ``b`` is checked: a factor of a finite matrix is finite.
    """
    _check_finite(b)
    x, info = lapack.dpotrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve_triangular(l, b, lower=True) for a factor from
    ``_cholesky``: finite and in Fortran order, which scipy passes as is."""
    _check_finite(b)
    x, info = lapack.dtrtrs(l, b, lower=True)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _step_factor(s: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of S plus a small jitter; None if S is too indefinite."""
    n = s.shape[0]
    jitter = 1e-12 * max(1.0, float(np.trace(s)) / n)
    for _ in range(5):
        try:
            return _cholesky(s + jitter * np.eye(n))
        except LinAlgError:
            jitter *= 100.0
    return None


def _max_step(l: np.ndarray | None, d: np.ndarray) -> float:
    """Largest alpha keeping S + alpha D PSD, with l = _step_factor(S)."""
    if l is None:
        return 0.0
    a = _solve_lower(l, d)
    return _max_identity_step(_solve_lower(l, a.T))


def _max_identity_step(a: np.ndarray) -> float:
    """Largest alpha keeping I + alpha A PSD."""
    lam = float(np.min(_eigh(_sym(a))))
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def sdp_solve(prob: Problem, settle: bool = False) -> SdpSolution:
    """Run the interior-point iteration; always returns a usable solution.

    The status is honest: "optimal" only when the relative gap and the
    residuals fall below ``SDP_TOL``; "settled", with ``settle``, once the
    primal residual is below SDP_TOL and the certificate rounds up
    (``ceil_certified``) to the primal objective's integer, which no later
    iterate can raise; else "max_iterations" at ``MAX_ITERATIONS`` (both
    module constants).  ``bound`` is the certificate of the returned y,
    safe whatever the status.
    """
    n = prob.dim
    b = prob.rhs
    if n > DIMENSION_CAP:
        raise SdpError(f"dimension {n} exceeds cap {DIMENSION_CAP}")
    if len(b) == 0:
        raise SdpError("problem has no constraints")

    # Internal objective scaling keeps iterations well conditioned when
    # weights span many orders of magnitude; results are reported unscaled.
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(prob.c)))
    if not np.isfinite(scale):
        raise SdpError("objective norm overflows: entries too large to scale")
    c = prob.c / scale

    # The certificate the stop test formed last: the returned bound of a
    # settled solve, whose last test is the one that settled it.
    tested_bound = None

    def settled(x, y) -> bool:
        # The certificate never exceeds b.y: no eigensolve until b.y alone
        # reaches the primal objective's integer.
        nonlocal tested_bound
        target = ceil_certified(float(np.vdot(prob.c, x)))
        y = scale * y
        if ceil_certified(float(b @ y)) < target:
            return False
        tested_bound = _certificate(prob, y)
        return ceil_certified(tested_bound) >= target

    # Problems lacking a strictly feasible point can send the dual running
    # away; overflow is silenced here, detected by the finiteness guard or
    # the except clause, and answered by falling back to the best iterate,
    # whose certificate is valid for any dual vector.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        status, it, x, y, rel_gap = _iterate(prob, c, b, settled if settle else None)
    if status not in ("optimal", "settled"):
        log.info("sdp_solve: %s after %d iterations (relgap %.2e)", status, it, rel_gap)

    # Undo the objective scaling: y pairs with C = scale * c, so the dual
    # certificate for the original data is scale * y.
    y = scale * y
    bound = tested_bound if status == "settled" else _certificate(prob, y)
    return SdpSolution(x=x, y=y, bound=bound, status=status, iterations=it)


def _certificate(prob: Problem, y: np.ndarray) -> float:
    """b.y + min(0, lambda_min(C - A^T y)) * trace_bound, from the exactly
    recomputed dual slack C - A^T y, never the iterate Z.  A PSD slack adds
    nothing, even to an infinite trace bound (where 0 * inf would be nan)."""
    lam = float(np.min(_eigh(_sym(prob.c - prob.op_at(y)))))
    return float(prob.rhs @ y) + (lam * prob.trace_bound if lam < 0.0 else 0.0)


def _iterate(prob: Problem, c, b, settled):
    """XZ predictor-corrector from ``prob.start(c)``, capped at MAX_ITERATIONS.

    Returns (status, iterations, x, y, rel_gap) with the last iterate when
    optimal or settled(x, y), else the best one seen.
    """
    n = prob.dim
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    eye = np.eye(n)
    x, y, z = prob.start(c)

    best = None
    status = "max_iterations"
    it = 0
    rel_gap = np.inf
    for it in range(1, MAX_ITERATIONS + 1):
        rp = b - prob.op_a(x)
        rd = c - prob.op_at(y) - z

        pobj = float(np.vdot(c, x))
        dobj = float(b @ y)
        gap = float(np.vdot(x, z))
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp)) / norm_b
        dres = float(np.linalg.norm(rd)) / norm_c

        worst = max(rel_gap, pres, dres)
        if not np.isfinite(pobj) or not np.isfinite(gap) or not np.isfinite(worst):
            status = "numerical_failure"
            break

        if best is None or worst < best[0]:
            best = (worst, x.copy(), y.copy(), rel_gap)

        if worst <= SDP_TOL:
            status = "optimal"
            break
        if settled is not None and pres <= SDP_TOL and settled(x, y):
            status = "settled"
            break

        mu = gap / n
        try:
            # Z = L L^T; with Li = L^-1, Z^-1 = Li^T Li, and Z + a dZ is
            # PSD exactly when I + a Li dZ Li^T is.
            li = _solve_lower(_cholesky(z), eye)
            z_inv = _sym(li.T @ li)
            fact = _robust_cho_factor(prob.schur(z_inv, x))
            z_inv_rd_x = z_inv @ rd @ x

            def direction(r):
                # C, Z and A^T y are symmetric, so dZ is without symmetrizing,
                # and so are the updated X and Z.
                dy = _cho_solve(fact, rp - prob.op_a(r - z_inv_rd_x))
                dz = rd - prob.op_at(dy)
                dx = _sym(r - z_inv @ dz @ x)
                return dy, dx, dz

            dy_a, dx_a, dz_a = direction(-x)
            # X stays fixed through both step-length searches.
            lx = _step_factor(x)
            ap = min(1.0, _max_step(lx, dx_a))
            ad = min(1.0, _max_identity_step(li @ dz_a @ li.T))
            mu_aff = float(np.vdot(x + ap * dx_a, z + ad * dz_a)) / n
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

            dy, dx, dz = direction(sigma * mu * z_inv - x - z_inv @ dz_a @ dx_a)
            tau = 0.95 if it <= 3 else 0.98
            ap = min(1.0, tau * _max_step(lx, dx))
            ad = min(1.0, tau * _max_identity_step(li @ dz @ li.T))
            if ap <= 1e-10 and ad <= 1e-10:
                status = "numerical_failure"
                break
            x = x + ap * dx
            y = y + ad * dy
            z = z + ad * dz
        except (LinAlgError, SdpError, ValueError):
            status = "numerical_failure"
            break

    if best is None:
        raise SdpError("iteration produced no usable point")
    if status in ("optimal", "settled"):
        return status, it, x, y, rel_gap
    return (status, it, *best[1:])


def _robust_cho_factor(mat: np.ndarray):
    bump = 1e-13 * max(1.0, float(np.trace(mat)) / max(1, mat.shape[0]))
    for _ in range(6):
        try:
            return _cholesky(mat + bump * np.eye(mat.shape[0]))
        except LinAlgError:
            bump *= 100.0
    raise SdpError("Schur complement not positive definite")
