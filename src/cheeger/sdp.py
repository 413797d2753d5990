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

- ``BisectionSdp`` (the arrow-structured rows of the cardinality-k
  bisection, applied from their structure) serves the cheap
  per-cardinality bound, and ``DenseSdp`` (a few dense rows held as one
  array) the global bound.  Both start infeasible at (xi I, 0, eta I).
  ``DenseSdp`` is also the tests' reference for the structured types.
- ``UnitDiagonalSdp`` (the max-cut rows diag(X) = 1, applied
  elementwise, so M = Z^-1 o X) starts feasible: X = I, and a Gershgorin
  y makes Z = C - Diag(y) positive definite, as in Biq Mac (Rendl,
  Rinaldi & Wiegele, Math. Program. 2010).  This serves every node bound
  of the branch-and-bound engine.

Everything downstream consumes *certified* bounds: for any dual vector y,
    <C, X> >= b.y + lambda_min(C - A^T y) * trace_bound
holds for every primal-feasible X whose trace is at most trace_bound, so
a valid bound survives loose convergence or outright solver failure.

The kernel is dense and meant for blocks up to a few hundred rows.

Node problems have a few dozen rows, where scipy's wrappers (input
checks, a workspace query per ``eigh``, batching dispatch) cost more than
the LAPACK work itself.  The kernels therefore call the routines those
wrappers call -- ``dsyevr``, ``dpotrf``, ``dpotrs`` and ``dtrtrs`` --
directly, with the same arguments and workspace sizes, so results are
bit-identical to the wrapped calls.  The wrappers' failures are kept too:
non-finite input raises ``ValueError`` and a nonzero LAPACK ``info``
raises ``LinAlgError``, which the iteration answers as numerical failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import lapack

log = logging.getLogger(__name__)

# Hard cap on the block dimension of every problem.
DIMENSION_CAP = 600
# Interior-point stopping tolerance for every bound the package computes.
SDP_TOL = 1e-7


class SdpError(RuntimeError):
    """Unrecoverable numerical failure inside the kernel."""


def _infeasible_start(n: int, rhs: np.ndarray, norms: np.ndarray, c: np.ndarray):
    """(xi I, 0, eta I), sized to b, the row norms and c."""
    xi = n * max(1.0, float(np.max((1.0 + np.abs(rhs)) / (1.0 + norms))))
    eta = max(1.0, float(np.max(norms)), float(np.linalg.norm(c)))
    return xi * np.eye(n), np.zeros(len(rhs)), eta * np.eye(n)


class DenseSdp:
    """min <C, X> s.t. <A_i, X> = b_i, X PSD, for a few dense rows.

    ``rows`` holds the symmetric matrices A_i as one (m, d, d) array,
    which costs m d^2 floats: right for a handful of rows only.
    """

    def __init__(self, c: np.ndarray, rows: np.ndarray, rhs):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]
        self.rows = np.asarray(rows, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
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
        return _infeasible_start(self.dim, self.rhs, np.linalg.norm(self._flat, axis=1), c)


class BisectionSdp:
    """The arrow-structured relaxation of the cardinality-k bisection.

    Over X = [[1, x^T], [x, Y]] of order d = n + 1, the n + 3 rows are,
    in order, X_00 = 1, tr Y = k, <J, Y> = k^2 and X_ii - X_0i = 0 for
    i = 1..n.  They are applied from that structure, at O(n^2) per call
    besides one matrix product in ``schur``.  The relaxation has no
    interior point (X (-k, e) = 0 for every feasible X), so the start is
    the infeasible (xi I, 0, eta I).
    """

    def __init__(self, c: np.ndarray, k: int):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]
        n = self.dim - 1
        self.rhs = np.concatenate(([1.0, float(k), float(k * k)], np.zeros(n)))
        # Frobenius norms of E_00, I_B, J_B and E_ii - (E_0i + E_i0)/2.
        self._norms = np.concatenate(([1.0, math.sqrt(n), float(n)], np.full(n, math.sqrt(1.5))))

    def op_a(self, x: np.ndarray) -> np.ndarray:
        diag = np.diagonal(x)[1:]
        head = [x[0, 0], diag.sum(), x[1:, 1:].sum()]
        return np.concatenate((head, diag - 0.5 * (x[0, 1:] + x[1:, 0])))

    def op_at(self, y: np.ndarray) -> np.ndarray:
        d = self.dim
        out = np.full((d, d), y[2])
        out[0, 0] = y[0]
        out[0, 1:] = out[1:, 0] = -0.5 * y[3:]
        i = np.arange(1, d)
        out[i, i] = (y[1] + y[2]) + y[3:]
        return out

    def schur(self, z_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """M_ij = <A_i, W A_j X> with W = Z^-1, from the row structure.

        The columns of E_00, I_B and J_B are A applied to W A_j X, an
        outer product, a matrix product and an outer product.  For the
        coordinate rows A_i = E_ii - (E_0i + E_i0)/2, P = W A_i X has
        P_ab = W_ai X_ib - (W_a0 X_ib + W_ai X_0b)/2, so row r of that
        column, P_rr - (P_0r + P_r0)/2, is elementwise in the symmetric
        W and X.  M is symmetric, which fills in the remaining block.
        """
        w = z_inv
        m = len(self.rhs)
        mat = np.empty((m, m))
        mat[:, 0] = self.op_a(np.outer(w[:, 0], x[0]))
        mat[:, 1] = self.op_a(w[:, 1:] @ x[1:])
        mat[:, 2] = self.op_a(np.outer(w[:, 1:].sum(axis=1), x[1:].sum(axis=0)))
        mat[:3, 3:] = mat[3:, :3].T
        wb, xb, w0, x0 = w[1:, 1:], x[1:, 1:], w[1:, 0], x[1:, 0]
        p_rr = wb * xb - 0.5 * (w0[:, None] * xb + wb * x0[:, None])
        p_0r = xb * w0 - 0.5 * (w[0, 0] * xb + np.outer(x0, w0))
        p_r0 = wb * x0 - 0.5 * (np.outer(w0, x0) + x[0, 0] * wb)
        mat[3:, 3:] = p_rr - 0.5 * (p_0r + p_r0)
        return _sym(mat)

    def start(self, c: np.ndarray):
        return _infeasible_start(self.dim, self.rhs, self._norms, c)


class UnitDiagonalSdp:
    """min <C, X> s.t. diag(X) = 1, X PSD: the max-cut relaxation.

    The rows diag(X) = 1 act elementwise, so no constraint rows are built.
    """

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]
        self.rhs = np.ones(self.dim)

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
    problem: Problem
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    primal_obj: float
    dual_obj: float
    status: str  # optimal | max_iterations | numerical_failure
    rel_gap: float
    primal_res: float
    dual_res: float
    iterations: int
    dual_slack_min_eig: float = field(default=0.0)

    def certified_lower_bound(self, trace_bound: float) -> float:
        """Bound valid for every primal-feasible point, whatever the status.

        Uses the exactly recomputed dual slack C - A^T y, never the iterate Z.
        """
        return self.dual_obj + min(0.0, self.dual_slack_min_eig) * trace_bound


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
    """The dsyevr workspace sizes scipy.linalg.eigh queries on every call."""
    query = lapack.get_lapack_funcs("syevr_lwork", dtype=np.float64)
    lwork, liwork = lapack._compute_lwork(query, n=n, lower=True)
    return {"lwork": lwork, "liwork": liwork}


def _eigh(a: np.ndarray, vectors: bool = True):
    """scipy.linalg.eigh(a) (lower triangle, LAPACK dsyevr), without its overhead."""
    _check_finite(a)
    w, v, _, _, info = lapack.dsyevr(
        a, compute_v=int(vectors), lower=True, **_syevr_workspace(a.shape[0])
    )
    if info != 0:
        raise LinAlgError(f"dsyevr failed with info {info}")
    return (w, v) if vectors else w


def _cholesky(a: np.ndarray, clean: bool = True) -> np.ndarray:
    """Lower Cholesky factor as scipy.linalg.cholesky (clean=True) or
    cho_factor (clean=False, upper triangle left as in ``a``) return it."""
    _check_finite(a)
    c, info = lapack.dpotrf(a, lower=True, clean=clean)
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
    lam = float(np.min(_eigh(_sym(a), vectors=False)))
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def sdp_solve(
    prob: Problem, tol: float = SDP_TOL, max_iterations: int = 100
) -> SdpSolution:
    """Run the interior-point iteration; always returns a usable solution.

    The status is honest: "optimal" only when the relative gap and the
    residuals fall below tol.  Callers needing safe bounds should go
    through SdpSolution.certified_lower_bound regardless of status.
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

    # Problems lacking a strictly feasible point can send the dual running
    # away; overflow is silenced here, detected by the finiteness guard or
    # the except clause, and answered by falling back to the best iterate,
    # whose certificate is valid for any dual vector.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        status, it, (x, y, z, rel_out, pres_out, dres_out) = _iterate(
            prob, c, b, tol, max_iterations
        )
    if status != "optimal":
        log.info("sdp_solve: %s after %d iterations (relgap %.2e)", status, it, rel_out)

    # Undo the objective scaling: y pairs with C = scale * c, so the dual
    # certificate for the original data is scale * y.
    y_orig = scale * y
    slack = prob.c - prob.op_at(y_orig)
    min_eig = float(np.min(_eigh(_sym(slack), vectors=False)))

    return SdpSolution(
        problem=prob,
        x=x,
        y=y_orig,
        z=scale * z,
        primal_obj=float(np.vdot(prob.c, x)),
        dual_obj=float(b @ y_orig),
        status=status,
        rel_gap=rel_out,
        primal_res=pres_out,
        dual_res=dres_out,
        iterations=it,
        dual_slack_min_eig=min_eig,
    )


def _iterate(prob: Problem, c, b, tol, max_iterations):
    """XZ predictor-corrector from ``prob.start(c)``.

    Returns (status, iterations, (x, y, z, rel_gap, pres, dres)) with the
    last iterate when optimal, else the best one seen.
    """
    n = prob.dim
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    eye = np.eye(n)
    x, y, z = prob.start(c)

    best = None
    status = "max_iterations"
    it = 0
    rel_gap = pres = dres = np.inf
    for it in range(1, max_iterations + 1):
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
            best = (worst, x.copy(), y.copy(), z.copy(), rel_gap, pres, dres)

        if worst <= tol:
            status = "optimal"
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
    if status == "optimal":
        return status, it, (x, y, z, rel_gap, pres, dres)
    return status, it, best[1:]


def _robust_cho_factor(mat: np.ndarray):
    bump = 1e-13 * max(1.0, float(np.trace(mat)) / max(1, mat.shape[0]))
    for _ in range(6):
        try:
            return _cholesky(mat + bump * np.eye(mat.shape[0]), clean=False)
        except LinAlgError:
            bump *= 100.0
    raise SdpError("Schur complement not positive definite")
