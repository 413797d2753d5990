"""Lower bounds on edge expansion and on per-cardinality bisection values.

Three bounds live here, in increasing cost:

* ``spectral_bound``: lambda_2(L)/2 from a direct eigensolve.
* ``global_sdp_bound``: the semidefinite relaxation over all admissible
  vertex subsets at once.  Its optimum coincides with the spectral bound,
  read off a dual certificate instead of an eigensolve.
* ``cheap_bisection_bound``: the relaxation of the cardinality-k
  bisection on its minimal face (``sdp.BisectionSdp``), rounded up to
  the next integer cut value and divided by k.  This is the workhorse
  the subset-size elimination loop calls once per cardinality.

All SDP-derived numbers pass through dual certificates, so a returned
bound is safe even when the interior-point iteration stops early.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import Graph, laplacian
from .sdp import BisectionSdp, DenseSdp, ceil_certified, sdp_solve


def spectral_bound(g: Graph) -> float:
    """Lower bound lambda_2(L)/2 on the edge expansion."""
    lam = np.linalg.eigvalsh(laplacian(g))
    return float(lam[1]) / 2.0


def global_sdp_bound(g: Graph) -> float:
    """Certified lower bound on h(G) from the all-cardinalities relaxation.

    Minimises <L, X> over tr X = 1 and 1 <= <J, X> <= n/2.  The
    subset-size row is kept at the continuous cap n/2, so the optimum
    matches the spectral value lambda_2(L)/2 exactly.

    The two inequalities become equalities through slack entries s1, s2
    appended on the diagonal of a block of order n + 2:
    <J, X> - s1 = 1 and <J, X> + s2 = n/2.  Their coupling to the rest of
    the block is left free, which is harmless: the objective and every
    row ignore those entries, and any principal sub-block of a PSD matrix
    is PSD, so projecting them away never changes feasibility or value.
    The extended block has trace at most n/2, which caps the dual
    certificate.
    """
    n = g.n
    d = n + 2
    obj = np.zeros((d, d))
    obj[:n, :n] = laplacian(g)
    rows = np.zeros((3, d, d))
    rows[0, range(n), range(n)] = 1.0
    rows[1:, :n, :n] = 1.0
    rows[1, n, n] = -1.0
    rows[2, n + 1, n + 1] = 1.0
    sol = sdp_solve(DenseSdp(obj, rows, [1.0, 1.0, n / 2.0]))
    return sol.certified_lower_bound(n / 2.0)


def cheap_bisection_bound(g: Graph, k: int) -> Fraction:
    """Exact-rational lower bound on cut(S)/k over subsets of size k.

    Solves the face-reduced relaxation of the k-bisection, certifies
    its value from the dual, rounds up to the next integer cut (cuts are
    integers), and clamps at 1 (every cut of a connected graph has at
    least one edge).  The result is a Fraction with denominator k.
    """
    if not 1 <= k <= g.n // 2:
        raise ValueError(f"cardinality {k} out of range for n={g.n}")
    return _cut_ratio_bound(bisection_sdp_bound(g, k), k)


def _cut_ratio_bound(cut_lower: float, k: int) -> Fraction:
    """Next integer cut (cuts of a connected graph are >= 1) over k."""
    return Fraction(max(1, ceil_certified(cut_lower)), k)


def fallback_bisection_bound(g: Graph, k: int, half_lambda: float) -> Fraction:
    """Eigenvalue bound on the size-k bisection ratio, rationalized safely.

    ``half_lambda`` is ``spectral_bound(g)``; every size-k cut is at least
    2 * half_lambda * k * (n - k) / n.
    """
    return _cut_ratio_bound(2.0 * half_lambda * k * (g.n - k) / g.n, k)


def bisection_sdp_bound(g: Graph, k: int) -> float:
    """Certified lower bound on the cardinality-k bisection cut value.

    The relaxation is ``BisectionSdp`` with the Laplacian as objective;
    every feasible W has trace k, which caps the dual certificate.  The
    solve stops once the certificate's next integer is settled, which is
    all that ``cheap_bisection_bound`` reads.
    """
    sol = sdp_solve(BisectionSdp(laplacian(g), k), settle_trace=k)
    return sol.certified_lower_bound(k)
