"""Lower bounds on edge expansion and on per-cardinality bisection values.

Three bounds live here, in increasing cost:

* ``spectral_bound``: lambda_2(L)/2 from a direct eigensolve.
* ``global_sdp_bound``: the semidefinite relaxation over all admissible
  vertex subsets at once.  Without strengthening its optimum coincides
  with the spectral bound; with ``use_bqp_cuts=True`` the feasible region
  is cut down by valid boolean-quadric inequalities separated in rounds.
* ``cheap_bisection_bound``: an arrow-structured relaxation of the
  cardinality-k bisection, rounded up to the next integer cut value and
  divided by k.  This is the workhorse the subset-size elimination loop
  calls once per cardinality.

All SDP-derived numbers pass through dual certificates, so a returned
bound is safe even when the interior-point iteration stops early.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction

import numpy as np

from .graphs import Graph, laplacian
from .sdp import DIMENSION_CAP, SdpBuilder, sdp_solve

log = logging.getLogger(__name__)

# Separation schedule for the boolean-quadric strengthening rounds.
CUT_VIOLATION_TOL = 1e-5
CUTS_PER_ROUND = 500
MAX_CUT_ROUNDS = 5
# Interior-point stopping tolerance for every relaxation here.
SDP_TOL = 1e-7
# Rounding guard when lifting a float certificate to an integer cut value.
CEIL_SLACK = 1e-6
# Every slack attached to a strengthening row stays below this once the
# lifted matrix has unit trace (all entries then lie in [-1/2, 1]).
CUT_SLACK_TRACE = 2.5


def spectral_bound(g: Graph) -> float:
    """Lower bound lambda_2(L)/2 on the edge expansion."""
    lam = np.linalg.eigvalsh(laplacian(g))
    return float(lam[1]) / 2.0


def _global_builder(g: Graph, subset_cap: float, cuts) -> SdpBuilder:
    n = g.n
    bld = SdpBuilder(n)
    bld.add_eq([(i, i, 1.0) for i in range(n)], 1.0)
    ones = np.ones((n, n))
    bld.add_lower(ones, 1.0)
    bld.add_upper(ones, subset_cap)
    for kind, idx in cuts:
        _add_cut_row(bld, kind, idx)
    return bld


def _add_cut_row(bld: SdpBuilder, kind: str, idx):
    if kind == "nonneg":
        i, j = idx
        bld.add_lower([(i, j, 1.0)], 0.0)
    elif kind == "diag-dom":
        i, j = idx  # X_ij <= X_ii
        bld.add_upper([(i, j, 1.0), (i, i, -1.0)], 0.0)
    elif kind == "triangle":
        i, j, l = idx  # X_il + X_jl - X_ij <= X_ll
        bld.add_upper([(i, l, 1.0), (j, l, 1.0), (i, j, -1.0), (l, l, -1.0)], 0.0)
    elif kind == "pair":
        i, j = idx  # X_ii + X_jj - X_ij <= 1
        bld.add_upper([(i, i, 1.0), (j, j, 1.0), (i, j, -1.0)], 1.0)
    elif kind == "clique":
        i, j, l = idx  # sum of diagonals minus pairwise entries <= 1
        bld.add_upper(
            [
                (i, i, 1.0),
                (j, j, 1.0),
                (l, l, 1.0),
                (i, j, -1.0),
                (i, l, -1.0),
                (j, l, -1.0),
            ],
            1.0,
        )
    else:
        raise ValueError(f"unknown cut kind {kind!r}")


def _separate_bqp_cuts(x: np.ndarray, existing: set) -> list:
    """Most-violated valid inequalities at x, strongest first.

    Returns (violation, kind, index-tuple) triples above CUT_VIOLATION_TOL,
    skipping rows already present.  Ties break on the (kind, index) key so
    separation is deterministic.
    """
    n = x.shape[0]
    found = []

    def consider(viol, kind, idx):
        if viol > CUT_VIOLATION_TOL and (kind, idx) not in existing:
            found.append((float(viol), kind, idx))

    for i in range(n):
        for j in range(i + 1, n):
            consider(-x[i, j], "nonneg", (i, j))
            consider(x[i, j] - x[i, i], "diag-dom", (i, j))
            consider(x[i, j] - x[j, j], "diag-dom", (j, i))
            consider(x[i, i] + x[j, j] - x[i, j] - 1.0, "pair", (i, j))
            for l in range(n):
                if l == i or l == j:
                    continue
                consider(
                    x[i, l] + x[j, l] - x[i, j] - x[l, l], "triangle", (i, j, l)
                )
            for l in range(j + 1, n):
                consider(
                    x[i, i]
                    + x[j, j]
                    + x[l, l]
                    - x[i, j]
                    - x[i, l]
                    - x[j, l]
                    - 1.0,
                    "clique",
                    (i, j, l),
                )
    found.sort(key=lambda t: (-t[0], t[1], t[2]))
    return found


def global_sdp_bound(g: Graph, use_bqp_cuts: bool = False) -> float:
    """Certified lower bound on h(G) from the all-cardinalities relaxation.

    Without strengthening the subset-size row is kept at the continuous
    cap n/2 so the optimum matches the spectral value exactly.  With
    ``use_bqp_cuts`` the cap tightens to floor(n/2) (valid for integer
    subset sizes) and violated boolean-quadric rows are added in rounds.
    """
    n = g.n
    lap = laplacian(g)
    if not use_bqp_cuts:
        bld = _global_builder(g, n / 2.0, [])
        sol = sdp_solve(bld.build(lap), tol=SDP_TOL)
        return sol.certified_lower_bound(n / 2.0)

    subset_cap = float(n // 2)
    cuts: list = []
    seen: set = set()
    best = -math.inf
    for round_no in range(MAX_CUT_ROUNDS + 1):
        bld = _global_builder(g, subset_cap, cuts)
        sol = sdp_solve(bld.build(lap), tol=SDP_TOL)
        trace_cap = subset_cap + CUT_SLACK_TRACE * len(cuts)
        best = max(best, sol.certified_lower_bound(trace_cap))
        if round_no == MAX_CUT_ROUNDS:
            break
        x = sol.x[:n, :n]
        violated = _separate_bqp_cuts(x, seen)
        if not violated:
            break
        room = DIMENSION_CAP - bld.extended_dim
        take = violated[: min(CUTS_PER_ROUND, room)]
        if len(take) < min(len(violated), CUTS_PER_ROUND):
            log.warning(
                "global_sdp_bound: dimension cap reached, dropping %d violated rows",
                len(violated) - len(take),
            )
        if not take:
            break
        for _, kind, idx in take:
            cuts.append((kind, idx))
            seen.add((kind, idx))
    return best


def cheap_bisection_bound(g: Graph, k: int) -> Fraction:
    """Exact-rational lower bound on cut(S)/k over subsets of size k.

    Solves the arrow-structured relaxation of the k-bisection, certifies
    its value from the dual, rounds up to the next integer cut (cuts are
    integers), and clamps at 1 (every cut of a connected graph has at
    least one edge).  The result is a Fraction with denominator k.
    """
    if not 1 <= k <= g.n // 2:
        raise ValueError(f"cardinality {k} out of range for n={g.n}")
    cert = bisection_sdp_bound(g, k)
    return Fraction(max(1, math.ceil(cert - CEIL_SLACK)), k)


def bisection_sdp_bound(g: Graph, k: int) -> float:
    """Certified lower bound on the cardinality-k bisection cut value."""
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
    sol = sdp_solve(bld.build(obj), tol=SDP_TOL)
    return sol.certified_lower_bound(1.0 + k)
