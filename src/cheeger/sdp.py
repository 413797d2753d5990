"""Dense semidefinite programming kernel.

Solves   min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0 (PSD)
with one of two primal-dual predictor-corrector methods, both with a
Mehrotra-style adaptive centering parameter:

- ``SdpProblem`` (general rows, built by ``SdpBuilder``): an
  infeasible-start path-following method with Nesterov-Todd scaling.
  Inequality rows are handled by appending nonnegative slack variables
  as extra diagonal entries of the (single, dense) PSD block.  This
  serves the cheap and global bounds, whose few rows mix dense and
  sparse matrices.
- ``UnitDiagonalSdp`` (the max-cut rows diag(X) = 1): the dual-feasible
  XZ method of Helmberg, Rendl, Vanderbei & Wolkowicz (SIAM J. Optim.
  1996), as in Biq Mac (Rendl, Rinaldi & Wiegele, Math. Program. 2010).
  X = I is feasible and Z = C - Diag(y) stays feasible for free, so an
  iteration costs one Cholesky factor of Z and one of an n x n Schur
  matrix instead of the two eigendecompositions of the NT scaling, and
  fewer iterations are needed.  This serves every node bound of the
  branch-and-bound engine.

Everything downstream consumes *certified* bounds: for any dual vector y,
    <C, X> >= b.y + lambda_min(C - A^T y) * trace_bound
holds for every primal-feasible X whose trace is at most trace_bound, so
a valid bound survives loose convergence or outright solver failure.

The kernel is dense and meant for blocks up to a few hundred rows.

Node problems have a few dozen rows, where scipy's wrappers (input checks, a
workspace query per ``eigh``, batching dispatch) cost more than the
LAPACK work itself.  The kernels therefore call the routines those
wrappers call -- ``dsyevr``, ``dpotrf``, ``dpotrs`` and ``dtrtrs`` --
directly, with the same arguments and the same ``dsyevr`` workspace
sizes (queried once per dimension), so every iterate is bit-identical
to the wrapped calls.  The wrappers' failures are kept too: non-finite
input raises ``ValueError`` and a nonzero LAPACK ``info`` raises
``LinAlgError``, which the iteration answers as before.  ``np.vdot``
replaces ``np.tensordot`` for <A, B>; both reduce to the same BLAS dot
product over the same row-major element order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import lapack

log = logging.getLogger(__name__)

# Hard cap on the (slack-extended) block dimension.
DIMENSION_CAP = 600
# Interior-point stopping tolerance for every bound the package computes.
SDP_TOL = 1e-7


class SdpError(RuntimeError):
    """Unrecoverable numerical failure inside the kernel."""


@dataclass
class Constraint:
    """One equality row <A, X> = rhs.

    Sparse rows store the symmetric matrix in COO triplets with both (i, j)
    and (j, i) present; dense rows keep the matrix itself.  The ``entries``
    accepted by ``from_entries`` are ``(i, j, c)`` meaning "coefficient c on
    X_ij", counting each unordered pair once, which is what constraint
    authors actually write.
    """

    rhs: float
    dense: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    vals: np.ndarray | None = None

    @classmethod
    def from_entries(cls, entries, rhs: float) -> "Constraint":
        r, c, v = [], [], []
        for i, j, coeff in entries:
            if i == j:
                r.append(i)
                c.append(j)
                v.append(float(coeff))
            else:
                r.extend((i, j))
                c.extend((j, i))
                v.extend((coeff / 2.0, coeff / 2.0))
        return cls(
            rhs=float(rhs),
            rows=np.asarray(r, dtype=np.intp),
            cols=np.asarray(c, dtype=np.intp),
            vals=np.asarray(v, dtype=float),
        )

    @classmethod
    def from_dense(cls, mat: np.ndarray, rhs: float) -> "Constraint":
        return cls(rhs=float(rhs), dense=_sym(np.asarray(mat, dtype=float)))

    def inner(self, x: np.ndarray) -> float:
        if self.dense is not None:
            return float(np.vdot(self.dense, x))
        return float(np.dot(self.vals, x[self.rows, self.cols]))

    def add_into(self, out: np.ndarray, scale: float):
        if self.dense is not None:
            out += scale * self.dense
        else:
            np.add.at(out, (self.rows, self.cols), scale * self.vals)

    def congruence(self, w: np.ndarray) -> np.ndarray:
        """W A W, the building block of the NT-scaled Schur complement."""
        if self.dense is not None:
            return w @ self.dense @ w
        return (w[:, self.rows] * self.vals) @ w[self.cols, :]

    def norm(self) -> float:
        if self.dense is not None:
            return float(np.linalg.norm(self.dense))
        return float(np.linalg.norm(self.vals))


@dataclass
class SdpProblem:
    dim: int
    c: np.ndarray
    constraints: list[Constraint]

    def op_a(self, x: np.ndarray) -> np.ndarray:
        return np.array([con.inner(x) for con in self.constraints])

    def op_at(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for yi, con in zip(y, self.constraints):
            if yi != 0.0:
                con.add_into(out, yi)
        return out

    @property
    def rhs(self) -> np.ndarray:
        return np.array([con.rhs for con in self.constraints])

    def row_norms(self) -> np.ndarray:
        return np.array([con.norm() for con in self.constraints])

    @cached_property
    def _gather(self):
        """Row indices by kind, sparse rows padded into (rows, cols, vals)."""
        sparse_idx = [k for k, con in enumerate(self.constraints) if con.dense is None]
        dense_idx = [k for k, con in enumerate(self.constraints) if con.dense is not None]
        width = max((len(self.constraints[k].vals) for k in sparse_idx), default=0)
        rows = np.zeros((len(sparse_idx), width), dtype=np.intp)
        cols = np.zeros((len(sparse_idx), width), dtype=np.intp)
        vals = np.zeros((len(sparse_idx), width))
        for slot, k in enumerate(sparse_idx):
            con = self.constraints[k]
            nnz = len(con.vals)
            rows[slot, :nnz] = con.rows
            cols[slot, :nnz] = con.cols
            vals[slot, :nnz] = con.vals
        return sparse_idx, dense_idx, rows, cols, vals

    def schur(self, w: np.ndarray) -> np.ndarray:
        """The NT-scaled Schur complement M_ij = <A_i, W A_j W>.

        Each column costs one congruence plus one fancy gather over all
        sparse rows instead of a Python-level loop of inner products.
        """
        sparse_idx, dense_idx, rows, cols, vals = self._gather
        m = len(self.constraints)
        mat = np.empty((m, m))
        for j, con in enumerate(self.constraints):
            waw = con.congruence(w)
            if sparse_idx:
                mat[sparse_idx, j] = np.einsum("ik,ik->i", vals, waw[rows, cols])
            for k in dense_idx:
                mat[k, j] = self.constraints[k].inner(waw)
        return _sym(mat)


class UnitDiagonalSdp:
    """min <C, X> s.t. diag(X) = 1, X PSD: the max-cut relaxation.

    ``sdp_solve`` reads only ``c`` and ``dim``: the rows diag(X) = 1 are
    built into its dual-feasible method, ``_unit_diagonal_iterate``.
    """

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]


class SdpBuilder:
    """Assemble a problem over an n x n block plus scalar slack entries.

    ``add_upper``/``add_lower`` turn <G, X> <= r (resp. >=) into an equality
    with a fresh slack slot appended on the diagonal of the extended block.
    Off-diagonal coupling between slacks and the block is left free, which
    is harmless: the objective and every row ignore those entries, and any
    principal sub-block of a PSD matrix is PSD, so projecting them away
    never changes feasibility or value.
    """

    def __init__(self, base_dim: int):
        self.base_dim = base_dim
        self._eqs: list[tuple[object, float]] = []
        self._ineqs: list[tuple[object, float, float]] = []

    def add_eq(self, lhs, rhs: float):
        self._eqs.append((lhs, rhs))

    def add_upper(self, lhs, rhs: float):
        """<lhs, X> <= rhs via a +1 slack."""
        self._ineqs.append((lhs, rhs, 1.0))

    def add_lower(self, lhs, rhs: float):
        """<lhs, X> >= rhs via a -1 slack."""
        self._ineqs.append((lhs, rhs, -1.0))

    def build(self, objective: np.ndarray) -> SdpProblem:
        dim = self.base_dim + len(self._ineqs)
        if dim > DIMENSION_CAP:
            raise SdpError(f"extended block dimension {dim} exceeds cap {DIMENSION_CAP}")
        c = np.zeros((dim, dim))
        c[: self.base_dim, : self.base_dim] = objective
        cons = []
        for lhs, rhs in self._eqs:
            cons.append(self._make(lhs, rhs, dim, None, 0.0))
        for slot, (lhs, rhs, sign) in enumerate(self._ineqs):
            cons.append(self._make(lhs, rhs, dim, self.base_dim + slot, sign))
        return SdpProblem(dim=dim, c=c, constraints=cons)

    def _make(self, lhs, rhs, dim, slack_idx, sign) -> Constraint:
        if isinstance(lhs, np.ndarray):
            mat = np.zeros((dim, dim))
            mat[: self.base_dim, : self.base_dim] = lhs
            if slack_idx is not None:
                mat[slack_idx, slack_idx] = sign
            return Constraint.from_dense(mat, rhs)
        entries = list(lhs)
        if slack_idx is not None:
            entries.append((slack_idx, slack_idx, sign))
        return Constraint.from_entries(entries, rhs)


@dataclass
class SdpSolution:
    problem: SdpProblem | UnitDiagonalSdp
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


def _nt_scaling(x: np.ndarray, z: np.ndarray):
    """Return (W, Z^-1) where W is the scaling point with W Z W = X."""
    dz, uz = _eigh(z)
    dz = np.maximum(dz, 1e-300)
    sq = np.sqrt(dz)
    z_half = (uz * sq) @ uz.T
    z_ihalf = (uz / sq) @ uz.T
    z_inv = (uz / dz) @ uz.T
    t = _sym(z_half @ x @ z_half)
    dt, ut = _eigh(t)
    dt = np.maximum(dt, 1e-300)
    t_half = (ut * np.sqrt(dt)) @ ut.T
    w = _sym(z_ihalf @ t_half @ z_ihalf)
    return w, _sym(z_inv)


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
    prob: SdpProblem | UnitDiagonalSdp, tol: float = SDP_TOL, max_iterations: int = 100
) -> SdpSolution:
    """Run the interior-point iteration; always returns a usable solution.

    A ``UnitDiagonalSdp`` gets the dual-feasible method of
    ``_unit_diagonal_iterate``, every other problem the NT-scaled method of
    ``_nt_iterate``.  The status is honest: "optimal" only when the
    relative gap and the residuals fall below tol.  Callers needing safe
    bounds should go through SdpSolution.certified_lower_bound regardless
    of status.
    """
    n = prob.dim
    unit = isinstance(prob, UnitDiagonalSdp)
    b = np.ones(n) if unit else prob.rhs
    if n > DIMENSION_CAP:
        raise SdpError(f"dimension {n} exceeds cap {DIMENSION_CAP}")
    if len(b) == 0:
        raise SdpError("problem has no constraints")

    # Internal objective scaling keeps iterations well conditioned when
    # weights span many orders of magnitude; results are reported unscaled.
    scale = max(1.0, float(np.linalg.norm(prob.c)))
    c = prob.c / scale

    # Problems lacking a strictly feasible point can send the dual running
    # away; overflow is silenced here, detected by the finiteness guard or
    # the except clause, and answered by falling back to the best iterate,
    # whose certificate is valid for any dual vector.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if unit:
            status, it, result = _unit_diagonal_iterate(c, tol, max_iterations)
        else:
            status, it, result = _nt_iterate(prob, c, b, tol, max_iterations)
    x, y, z, rel_out, pres_out, dres_out = result
    if status != "optimal":
        log.info("sdp_solve: %s after %d iterations (relgap %.2e)", status, it, rel_out)

    # Undo the objective scaling: y pairs with C = scale * c, so the dual
    # certificate for the original data is scale * y.
    y_orig = scale * y
    slack = prob.c - (np.diag(y_orig) if unit else prob.op_at(y_orig))
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


def _nt_iterate(prob: SdpProblem, c, b, tol, max_iterations):
    """Infeasible-start predictor-corrector with Nesterov-Todd scaling.

    Returns (status, iterations, (x, y, z, rel_gap, pres, dres)) with the
    last iterate when optimal, else the best one seen.
    """
    n = prob.dim
    m = len(b)
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    con_norms = prob.row_norms()
    xi = n * max(1.0, max((1.0 + abs(bi)) / (1.0 + nm) for bi, nm in zip(b, con_norms)))
    eta = max(1.0, max(con_norms, default=1.0), float(np.linalg.norm(c)))

    x = xi * np.eye(n)
    z = eta * np.eye(n)
    y = np.zeros(m)

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
            w, z_inv = _nt_scaling(x, z)
            fact = _robust_cho_factor(prob.schur(w))
            a_wrdw = prob.op_a(w @ rd @ w)

            def direction(rc):
                dy = _cho_solve(fact, rp - prob.op_a(rc) + a_wrdw)
                aty = prob.op_at(dy)
                dz = _sym(rd - aty)
                dx = _sym(rc + w @ (aty - rd) @ w)
                return dy, dx, dz

            dy_a, dx_a, dz_a = direction(-x)
            # X and Z stay fixed through both step-length searches.
            lx = _step_factor(x)
            lz = _step_factor(z)
            ap = min(1.0, _max_step(lx, dx_a))
            ad = min(1.0, _max_step(lz, dz_a))
            mu_aff = float(np.vdot(x + ap * dx_a, z + ad * dz_a)) / n
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

            dy, dx, dz = direction(sigma * mu * z_inv - x)
            tau = 0.95 if it <= 3 else 0.98
            ap = min(1.0, tau * _max_step(lx, dx))
            ad = min(1.0, tau * _max_step(lz, dz))
            if ap <= 1e-10 and ad <= 1e-10:
                status = "numerical_failure"
                break
            x = _sym(x + ap * dx)
            y = y + ad * dy
            z = _sym(z + ad * dz)
        except (LinAlgError, SdpError, ValueError):
            status = "numerical_failure"
            break

    if best is None:
        raise SdpError("iteration produced no usable point")
    if status == "optimal":
        return status, it, (x, y, z, rel_gap, pres, dres)
    return status, it, best[1:]


def _unit_diagonal_iterate(c, tol, max_iterations):
    """Dual-feasible predictor-corrector for min <c, X>, diag(X) = e.

    The XZ (HKM) direction of Helmberg, Rendl, Vanderbei & Wolkowicz
    (SIAM J. Optim. 1996), with a Mehrotra corrector.  X = I is
    primal-feasible and a Gershgorin y makes Z = c - Diag(y) diagonally
    dominant, so Z stays c - Diag(y) exactly and only the gap and the
    primal residual have to close.  With dZ = -Diag(dy), Newton's step
    on Z X = sigma mu I reduces to the n x n Schur system
    (Z^-1 o X) dy = e - sigma mu diag(Z^-1) - diag(K), and then
    dX = sym(sigma mu Z^-1 - X + Z^-1 Diag(dy) X + K), where
    K = Z^-1 Diag(dy_a) dX_a is the corrector's second-order term (0 in
    the predictor).  Z^-1 o X is positive definite whenever X and Z are.

    Returns what ``_nt_iterate`` returns.
    """
    n = c.shape[0]
    e = np.ones(n)
    norm_b = 1.0 + math.sqrt(n)
    # Each row of Z exceeds its off-diagonal absolute sum r by r/10 + 1/n,
    # so lambda_min(Z) >= 1/n by Gershgorin (the iteration count barely
    # depends on these margins).
    diag_c = np.diagonal(c)
    off = np.abs(c).sum(axis=1) - np.abs(diag_c)
    y = diag_c - off - (0.1 * off + 1.0 / n)
    x = np.eye(n)
    z = c - np.diag(y)

    best = None
    status = "max_iterations"
    it = 0
    rel_gap = pres = np.inf
    for it in range(1, max_iterations + 1):
        pobj = float(np.vdot(c, x))
        dobj = float(np.sum(y))
        gap = float(np.vdot(x, z))
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(e - np.diagonal(x))) / norm_b

        worst = max(rel_gap, pres)
        if not np.isfinite(pobj) or not np.isfinite(gap) or not np.isfinite(worst):
            status = "numerical_failure"
            break

        if best is None or worst < best[0]:
            best = (worst, x.copy(), y.copy(), z.copy(), rel_gap, pres, 0.0)

        if worst <= tol:
            status = "optimal"
            break

        mu = gap / n
        try:
            # Z = L L^T; with Li = L^-1, Z^-1 = Li^T Li, and Z + a Diag(d)
            # is PSD exactly when I + a Li Diag(d) Li^T is.
            li = _solve_lower(_cholesky(z), np.eye(n))
            z_inv = _sym(li.T @ li)
            fact = _robust_cho_factor(z_inv * x)
            diag_z_inv = np.diagonal(z_inv)

            dy_a = _cho_solve(fact, e)
            dx_a = _sym((z_inv * dy_a) @ x - x)
            # X and Z stay fixed through both step-length searches.
            lx = _step_factor(x)
            ap = min(1.0, _max_step(lx, dx_a))
            ad = min(1.0, _max_identity_step((li * -dy_a) @ li.T))
            mu_aff = float(np.vdot(x + ap * dx_a, z - ad * np.diag(dy_a))) / n
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

            k_diag = ((z_inv * dy_a) * dx_a).sum(axis=1)
            dy = _cho_solve(fact, e - sigma * mu * diag_z_inv - k_diag)
            dx = _sym(
                sigma * mu * z_inv - x + z_inv @ (dy[:, None] * x + dy_a[:, None] * dx_a)
            )
            tau = 0.95 if it <= 3 else 0.98
            ap = min(1.0, tau * _max_step(lx, dx))
            ad = min(1.0, tau * _max_identity_step((li * -dy) @ li.T))
            if ap <= 1e-10 and ad <= 1e-10:
                status = "numerical_failure"
                break
            x = _sym(x + ap * dx)
            y = y + ad * dy
            z = c - np.diag(y)
        except (LinAlgError, SdpError, ValueError):
            status = "numerical_failure"
            break

    if best is None:
        raise SdpError("iteration produced no usable point")
    if status == "optimal":
        return status, it, (x, y, z, rel_gap, pres, 0.0)
    return status, it, best[1:]


def _robust_cho_factor(mat: np.ndarray):
    bump = 1e-13 * max(1.0, float(np.trace(mat)) / max(1, mat.shape[0]))
    for _ in range(6):
        try:
            return _cholesky(mat + bump * np.eye(mat.shape[0]), clean=False)
        except LinAlgError:
            bump *= 100.0
    raise SdpError("Schur complement not positive definite")
