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
(X, y, Z) for the scaled objective c).  Two problem types supply them:

- ``SdpProblem`` (general rows, built by ``SdpBuilder``) starts
  infeasible at (xi I, 0, eta I).  Inequality rows are handled by
  appending nonnegative slack variables as extra diagonal entries of the
  (single, dense) PSD block.  This serves the cheap and global bounds,
  whose few rows mix dense and sparse matrices.
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

    def product(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """left A right, the building block of the Schur complement."""
        if self.dense is not None:
            return left @ self.dense @ right
        return (left[:, self.rows] * self.vals) @ right[self.cols, :]

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

    def start(self, c: np.ndarray):
        """Infeasible start (xi I, 0, eta I), sized to b, the rows and c."""
        n = self.dim
        norms = [con.norm() for con in self.constraints]
        ratios = [(1.0 + abs(con.rhs)) / (1.0 + nm) for con, nm in zip(self.constraints, norms)]
        xi = n * max(1.0, max(ratios))
        eta = max(1.0, max(norms), float(np.linalg.norm(c)))
        return xi * np.eye(n), np.zeros(len(norms)), eta * np.eye(n)

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

    def schur(self, z_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The Schur complement M_ij = <A_i, Z^-1 A_j X> of the XZ direction.

        Each column costs one product plus one fancy gather over all
        sparse rows instead of a Python-level loop of inner products.
        """
        sparse_idx, dense_idx, rows, cols, vals = self._gather
        m = len(self.constraints)
        mat = np.empty((m, m))
        for j, con in enumerate(self.constraints):
            prod = con.product(z_inv, x)
            if sparse_idx:
                mat[sparse_idx, j] = np.einsum("ik,ik->i", vals, prod[rows, cols])
            for k in dense_idx:
                mat[k, j] = self.constraints[k].inner(prod)
        return _sym(mat)


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


def _iterate(prob: SdpProblem | UnitDiagonalSdp, c, b, tol, max_iterations):
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
