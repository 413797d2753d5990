"""Lower bounds on edge expansion and on per-cardinality bisection values.

Three bounds live here, in increasing cost:

* ``spectral_bound``: lambda_2(L)/2 from a direct eigensolve.
* ``global_sdp_bound``: the semidefinite relaxation over all admissible
  vertex subsets at once.  Its optimum coincides with the spectral bound,
  read off a dual certificate instead of an eigensolve.
* ``cheap_bisection_bound``: an arrow-structured relaxation of the
  cardinality-k bisection, rounded up to the next integer cut value and
  divided by k.  This is the workhorse the subset-size elimination loop
  calls once per cardinality.

All SDP-derived numbers pass through dual certificates, so a returned
bound is safe even when the interior-point iteration stops early.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .graphs import Graph, laplacian
from .sdp import SDP_TOL, SdpBuilder, sdp_solve

# Rounding guard when lifting a float certificate to an integer cut value.
CEIL_SLACK = 1e-6


def spectral_bound(g: Graph) -> float:
    """Lower bound lambda_2(L)/2 on the edge expansion."""
    lam = np.linalg.eigvalsh(laplacian(g))
    return float(lam[1]) / 2.0


def global_sdp_bound(g: Graph) -> float:
    """Certified lower bound on h(G) from the all-cardinalities relaxation.

    Minimises <L, X> over tr X = 1 and 1 <= <J, X> <= n/2.  The
    subset-size row is kept at the continuous cap n/2, so the optimum
    matches the spectral value lambda_2(L)/2 exactly.  The slack-extended
    block has trace at most n/2, which caps the dual certificate.
    """
    n = g.n
    bld = SdpBuilder(n)
    bld.add_eq([(i, i, 1.0) for i in range(n)], 1.0)
    ones = np.ones((n, n))
    bld.add_lower(ones, 1.0)
    bld.add_upper(ones, n / 2.0)
    sol = sdp_solve(bld.build(laplacian(g)), tol=SDP_TOL)
    return sol.certified_lower_bound(n / 2.0)


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
