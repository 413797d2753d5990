"""Exact branch-and-bound max-cut over integer-weighted complete graphs.

Upper bounds come from the semidefinite relaxation with unit diagonal,
one solve per node, certified from its dual.  Lower bounds come from
hyperplane rounding of the relaxation's matrix followed by single-flip
descent.  Branching contracts a vertex into vertex 0, once per side, so
every subproblem is again a plain max-cut on one fewer vertex; small
subproblems are closed by exhaustive enumeration.

Node bounds solve ``sdp.UnitDiagonalSdp``, whose rows diag(X) = 1 act
elementwise, so no generic constraint rows are built on the hot path; its
start is dual feasible, and every dual iterate is a certificate.
Enumeration meets in the middle: one sign table per half of the
vertices, and one matrix product per block of high-half codes against
all low-half codes, so memory stays near 2^16 cuts plus two tables of
2^(n/2) rows even at the 24-vertex cap.

All cut values are exact integers.  Enumeration sums on BLAS in float32
while every sum stays below 2^24 and in float64 below 2^53, the ranges
where those floats hold integers exactly, in int64 below 2^60, and in
Python integers beyond; other floats appear only inside relaxation
bounds, which are certified and therefore safe to floor against the
integer incumbent.

Each node holds its weights as one integer array.  Contraction only sums
entries, so the instance's total absolute weight (the search's width)
bounds every entry and row sum of every node: the array is int64 while
the width stays below ``ENUM_INT64_LIMIT`` and Python integers
(``object``) above it.  Contraction, descent and rounding work on that
array; it is cast to float64 for the node relaxation and to float32 or
float64 for float-tier leaves.

The search is one best-first loop over a heap of open nodes: pop the
node with the largest bound and branch it unless its floored bound no
longer beats the incumbent.  Nothing runs concurrently, so with a fixed
seed the node order and the result are reproducible, and a failing bound
raises out of ``solve_maxcut`` instead of losing its subtree.  The
limits live in one ``Budget`` per run, which owns the run's clock and
the node count that each of the run's searches charges.

An injected ``initial_lb`` turns the search into a threshold test: the
incumbent starts there without a witness, and if nothing beats it the
status reports "bound-stop", certifying the optimum is at most the
injected value.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .sdp import UnitDiagonalSdp, floor_certified, sdp_solve
from .transforms import MaxCutInstance, integer_weights

log = logging.getLogger(__name__)

DEFAULT_NODE_LIMIT = 10**6
DEFAULT_TIME_LIMIT = 3600.0


def require_nonnegative(**values):
    """Refuse a NaN or negative limit or seed before any work starts.

    Every ``elapsed >= time_limit`` check is False for NaN, and node
    rounding seeds numpy, which rejects negative seeds mid-run.
    """
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")


class Budget:
    """The node and time limits of one run, shared by all of its searches.

    The clock starts when the budget is built, and every search charges
    each node it admits to ``nodes``, so a run made of many exact solves
    stops at one total.  A NaN or negative limit raises ``ValueError``.
    """

    def __init__(self, node_limit: int = DEFAULT_NODE_LIMIT,
                 time_limit: float = DEFAULT_TIME_LIMIT):
        require_nonnegative(node_limit=node_limit, time_limit=time_limit)
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.nodes = 0
        self._started = time.monotonic()

    def elapsed(self) -> float:
        """Seconds since the budget was built."""
        return time.monotonic() - self._started

    def out_of_time(self) -> bool:
        return self.elapsed() >= self.time_limit

    def exhausted(self) -> bool:
        return self.nodes >= self.node_limit or self.out_of_time()


# Leaves are enumerated up to the largest order at which a dense leaf
# costs no more than a mean bounded node: node SDP solves plus rounding,
# 7.3 ms on small-mixed, 12.0 ms on ratio-ring and 13.2 ms on split-mid in
# traced bench passes at 18-vertex leaves.  Enumeration of a dense random
# instance with weights in [-10, 10] (float32) and the same scaled by 2^20
# (float64), median of three best-of-7 times (2-vCPU Xeon, one OpenBLAS
# thread):
#
#     order     18     20     21     22     23     24
#     float32   0.41   0.66   1.03   1.83   3.60   6.15  ms
#     float64   0.73   1.37   2.24   3.67   6.69   11.4  ms
#
# The crossover was set on float64 leaves; a float32 leaf of 24 vertices
# now costs less than a mean node.
# A search whose weights can push a leaf out of the float tiers keeps
# 18-vertex leaves: there the Python-integer tier takes 0.16 s and doubles
# with each further vertex.  Changing either size changes node counts.
LEAF_SIZE = 23
WIDE_LEAF_SIZE = 18
# Enumeration runs in float32 while max |w| * N^2 stays under the first
# limit, in float64 under the second and in int64 under the third; node
# arrays are int64 while the search's width stays under the third.
ENUM_SINGLE_LIMIT = 1 << 24
ENUM_FLOAT_LIMIT = 1 << 53
ENUM_INT64_LIMIT = 1 << 60
# Cuts held in memory at once by enumeration.
ENUM_BLOCK = 1 << 16
GW_ROUNDS = 24


@dataclass
class MaxCutResult:
    """Outcome of a branch-and-bound run.

    ``mask`` assigns each instance vertex a side (bit i set = opposite
    side from vertex 0); it is None when an injected bound was never
    beaten, in which case ``value`` echoes that bound as a certified
    ceiling rather than an achieved cut.
    """

    value: int
    mask: int | None
    status: str  # optimal | bound-stop | limit
    nodes: int
    best_bound: float


class _Node:
    __slots__ = ("weights", "const", "groups", "bound", "depth", "anchor_row", "node_id")

    def __init__(self, weights, const, groups, depth, node_id):
        self.weights = weights
        self.const = const
        self.groups = groups
        self.depth = depth
        self.node_id = node_id
        self.bound = math.inf
        self.anchor_row = None

    @property
    def size(self):
        return len(self.weights)


def _signed_laplacian(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return np.diag(w.sum(axis=1)) - w


def improve_cut(weights: np.ndarray, signs) -> tuple[int, np.ndarray]:
    """Steepest single-flip descent; returns the improved cut and signs.

    ``weights`` is a node's integer array (int64 or object), symmetric
    with a zero diagonal, and ``signs`` are +-1; the signs come back as a
    new array of the same dtype.  With r = W s, the starting cut is exact
    integer arithmetic on sums the descent needs anyway: 4 cut = sum(W) -
    s.r, because sum(W) counts each pair twice and s.r counts an uncut
    pair +2w and a cut one -2w.  Flipping i gains s_i r_i; ``argmax``
    takes the first largest gain, so ties go to the lowest index.
    """
    s = np.array(signs, dtype=weights.dtype)
    r = weights @ s
    value = int(weights.sum() - s @ r) // 4
    while True:
        gains = s * r
        i = int(np.argmax(gains))
        if gains[i] <= 0:
            return value, s
        value += int(gains[i])
        s[i] = -s[i]
        r += 2 * s[i] * weights[i]


def gw_round(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``GW_ROUNDS`` hyperplane roundings of a PSD matrix, as sign rows.

    Returns a ``GW_ROUNDS`` x n int64 array of +-1 whose column 0 is +1.
    Pure rounding: a rank-one matrix s s^T comes back as exactly s for
    every hyperplane.  Descent is the caller's business.
    """
    n = x.shape[0]
    vals, vecs = np.linalg.eigh((x + x.T) / 2.0)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    dirs = rng.standard_normal((GW_ROUNDS, n))
    signs = np.where(dirs @ factor.T < 0, -1, 1)
    return signs * signs[:, :1]


@functools.cache
def _sign_table(bits: int, dtype) -> np.ndarray:
    """Row c holds 1 - 2 * (bit j of c) in column j, for every code c.

    Built once per (bits, dtype) and read-only, since every caller shares
    it: at most 13 bit counts (``enumerate_maxcut`` takes up to 24
    vertices) times the four enumeration types.
    """
    codes = np.arange(1 << bits, dtype=np.int64)[:, None]
    table = (1 - 2 * ((codes >> np.arange(bits, dtype=np.int64)) & 1)).astype(dtype)
    table.flags.writeable = False
    return table


def _enum_dtype(max_w: int, n: int):
    """Array type that enumerates n vertices of weight at most max_w exactly.

    Every partial sum of every product and row sum in ``enumerate_maxcut``
    is an integer of magnitude at most max_w n^2: the three terms of quad
    sum to at most max_w (n_h^2 + 2 n_h n_l + n_l^2) over the n_h high
    and n_l low vertices.  On BLAS, float32 is exact below 2^24 and
    float64 below 2^53, in any summation order, so ``argmin`` finds the
    same first minimizer on either; int64 (numpy's own integer loops) is
    kept below ``ENUM_INT64_LIMIT``, and Python integers (``object``) are
    exact at any size.
    """
    span = max_w * n * n
    if span < ENUM_SINGLE_LIMIT:
        return np.float32
    if span < ENUM_FLOAT_LIMIT:
        return np.float64
    return np.int64 if span < ENUM_INT64_LIMIT else object


def enumerate_maxcut(instance_or_weights) -> tuple[int, int]:
    """Exact maximum cut by enumeration; returns (value, mask).

    The mask keeps vertex 0 on side 0; code bit i - 1 is vertex i.  The
    free vertices split into a low half (with vertex 0) and a high half,
    and every cut is the quadratic form of its two half sign vectors:

        4 cut = 2 total - quad,
        quad = q_high + q_low + 2 s_high W[high, low] s_low.

    One matrix product per block of high codes gives quad: the high rows
    carry (s_high, q_high, 1) and the low columns (2 W[high, low] s_low,
    1, q_low).  Row-major order of the (high code, low code) table is code
    order, so the first minimum of quad, block by block, is the first
    maximizer.  Blocks keep at most about ``ENUM_BLOCK`` cuts in memory.
    Takes an instance or any weights ``integer_weights`` reads, which
    refuses what ``MaxCutInstance.build`` refuses with the same
    ``ValueError``; the array type comes from ``_enum_dtype``, so every
    sum is an exact integer.
    """
    if isinstance(instance_or_weights, MaxCutInstance):
        instance_or_weights = instance_or_weights.weights
    n = len(instance_or_weights)
    if not 1 <= n <= 24:
        raise ValueError(f"enumeration takes 1 to 24 vertices, got {n}")
    w = integer_weights(instance_or_weights)
    # Python ints, since abs() of an int64 array wraps at -2^63.
    max_w = max(int(w.max()), -int(w.min()))
    dtype = _enum_dtype(max_w, n)
    w = w.astype(dtype, copy=False)
    if n == 1:
        return 0, 0
    low = (n - 1) // 2
    split = low + 1
    s_low = np.hstack([np.ones((1 << low, 1), dtype=dtype), _sign_table(low, dtype)])
    s_high = _sign_table(n - split, dtype)
    q_low = ((s_low @ w[:split, :split]) * s_low).sum(axis=1)
    q_high = ((s_high @ w[split:, split:]) * s_high).sum(axis=1)
    high = np.hstack([s_high, q_high[:, None], np.ones((len(s_high), 1), dtype=dtype)])
    low_cols = np.vstack([2 * (w[split:, :split] @ s_low.T),
                          np.ones((1, len(s_low)), dtype=dtype), q_low[None, :]])
    rows = max(1, ENUM_BLOCK >> low)
    best_quad = None
    best_code = 0
    for start in range(0, len(high), rows):
        quad = high[start:start + rows] @ low_cols
        at = int(np.argmin(quad))
        value = int(quad.flat[at])
        if best_quad is None or value < best_quad:
            best_quad = value
            best_code = (start << low) + at
    return (int(w.sum()) - best_quad) // 4, best_code << 1


def contract_pair(weights: np.ndarray, pick: int, rel: int) -> tuple[np.ndarray, int]:
    """Fold vertex ``pick`` onto vertex 0 and drop its row and column.

    ``rel = 1`` forces the pair onto the same side, ``rel = -1`` onto
    opposite sides.  Takes a node's integer array and returns a new one
    of the same dtype with the constant shift, so that for the matching
    restriction of assignments

        maxcut(parent) = maxcut(reduced) + shift.

    The shift is zero for the same-side fold; the opposite fold banks the
    weights incident to ``pick`` because those pairs are now separated
    exactly when the corresponding pair with vertex 0 is not.
    """
    n = len(weights)
    if not 1 <= pick < n:
        raise ValueError("pick must be a non-anchor vertex")
    keep = np.delete(np.arange(n), pick)
    folded = weights[np.ix_(keep, keep)]
    folded[0, 1:] += rel * weights[pick, keep[1:]]
    folded[1:, 0] = folded[0, 1:]
    shift = int(weights[pick].sum()) if rel < 0 else 0
    return folded, shift


class _Search:
    def __init__(
        self,
        instance: MaxCutInstance,
        initial_lb,
        budget: Budget,
        seed,
        trace,
    ):
        self.budget = budget
        # Contraction only sums entries, so no node weighs more than the
        # instance's total absolute weight: that decides the leaf's tier
        # and the node arrays' dtype, and past 2^53 the node relaxations'
        # float64 Laplacians are no longer exact.
        width = sum(abs(w) for row in instance.weights for w in row) // 2
        if width >= ENUM_FLOAT_LIMIT:
            log.warning("the total weight has %d bits; node relaxations round the Laplacian",
                        width.bit_length())
        wide = width * LEAF_SIZE**2 >= ENUM_FLOAT_LIMIT
        self.leaf_order = min(LEAF_SIZE, WIDE_LEAF_SIZE) if wide else LEAF_SIZE
        self.seed = seed
        self.trace = trace

        self.heap = []
        self.nodes = 0
        self.node_ids = itertools.count()
        self.hit_limit = False

        self.injected = initial_lb is not None
        self.incumbent = initial_lb if self.injected else 0
        self.incumbent_mask = None if self.injected else 0
        self.updated = False

        self.orig_n = instance.n
        dtype = np.int64 if width < ENUM_INT64_LIMIT else object
        weights = np.array(instance.weights, dtype=dtype)
        groups = tuple(((i, 1),) for i in range(instance.n))
        self.root = _Node(weights, 0, groups, 0, next(self.node_ids))

    # -- incumbent handling ------------------------------------------------

    def _offer(self, node: _Node, value, signs):
        """Install a cut of ``node`` as the incumbent if it beats it.

        ``value`` includes the node's constant; ``signs`` are decoded into
        a mask on the original vertices only for a cut that wins.
        """
        if value <= self.incumbent:
            return
        mask = 0
        for side, group in zip(signs, node.groups):
            for orig, rel in group:
                if side * rel < 0:
                    mask |= 1 << orig
        if mask & 1:
            mask ^= (1 << self.orig_n) - 1
        self.incumbent = value
        self.incumbent_mask = mask
        self.updated = True

    # -- bounding ----------------------------------------------------------

    def _bound(self, node: _Node):
        """Certified upper bound on node maxcut + const; rounds as it goes."""
        quarter = _signed_laplacian(node.weights) / 4.0
        sol = sdp_solve(UnitDiagonalSdp(-quarter))
        node.anchor_row = np.abs(sol.x[0, 1:])
        node.bound = node.const - sol.bound
        rng = np.random.default_rng((self.seed, node.node_id))
        for signs in gw_round(sol.x, rng):
            value, signs = improve_cut(node.weights, signs)
            self._offer(node, value + node.const, signs)

    # -- life cycle of a node ----------------------------------------------

    def _admit(self, node: _Node, cap: float = math.inf):
        """Bound or enumerate a freshly created node, pushing if still open."""
        self.nodes += 1
        self.budget.nodes += 1
        if node.size <= self.leaf_order:
            value, mask = enumerate_maxcut(node.weights)
            signs = 1 - 2 * (mask >> np.arange(node.size) & 1)
            self._offer(node, value + node.const, signs)
            self._log_node(node, value + node.const)
            return
        self._bound(node)
        node.bound = min(node.bound, cap)
        self._log_node(node, node.bound)
        if floor_certified(node.bound) > self.incumbent:
            heapq.heappush(self.heap, (-node.bound, -node.depth, node.node_id, node))

    def _log_node(self, node: _Node, bound):
        if self.trace is None:
            return
        self.trace.append((node.node_id, node.depth, float(bound), self.incumbent))

    def _branch(self, node: _Node):
        pick = 1 + int(np.argmin(node.anchor_row))
        for rel in (1, -1):
            weights, shift = contract_pair(node.weights, pick, rel)
            merged = node.groups[0] + tuple(
                (orig, rel * r) for orig, r in node.groups[pick]
            )
            groups = (merged,) + node.groups[1:pick] + node.groups[pick + 1:]
            child = _Node(weights, node.const + shift, groups, node.depth + 1, next(self.node_ids))
            self._admit(child, cap=node.bound)

    def run(self) -> MaxCutResult:
        if self.budget.exhausted():
            # Nothing admitted: the starting incumbent, and no bound on the rest.
            return MaxCutResult(self.incumbent, self.incumbent_mask, "limit", 0, math.inf)
        self._admit(self.root)
        while self.heap:
            if self.budget.exhausted():
                self.hit_limit = True
                break
            _, _, _, node = heapq.heappop(self.heap)
            if floor_certified(node.bound) > self.incumbent:
                self._branch(node)

        open_bounds = [-entry[0] for entry in self.heap]
        if self.hit_limit:
            status = "limit"
            best_bound = max([float(self.incumbent)] + open_bounds)
        else:
            status = "bound-stop" if self.injected and not self.updated else "optimal"
            best_bound = float(self.incumbent)
        return MaxCutResult(
            value=self.incumbent,
            mask=self.incumbent_mask,
            status=status,
            nodes=self.nodes,
            best_bound=best_bound,
        )


def solve_maxcut(
    instance: MaxCutInstance,
    initial_lb: int | None = None,
    budget: Budget | None = None,
    seed: int = 0,
    trace: list | None = None,
) -> MaxCutResult:
    """Solve max-cut exactly, or test it against an injected threshold.

    Parameters
    ----------
    instance : MaxCutInstance
        Symmetric integer weights, zero diagonal.
    initial_lb : int, optional
        Start the incumbent here without a witness.  If the search ends
        without beating it, status is "bound-stop" and the true optimum
        is certified to be at most this value.
    budget : Budget, optional
        Limits shared with the run's other searches (default ``Budget()``).
        Once it is exhausted the status is "limit", with the incumbent and
        the best open bound; a search that starts on an exhausted budget
        admits no root and reports 0 nodes and a best bound of inf.
        ``nodes`` counts this search's nodes only.
    seed : int
        Drives hyperplane rounding; fixed seed makes runs reproducible.
    trace : list, optional
        Collects one ``(node id, depth, bound, incumbent)`` row per
        processed node, in processing order.

    A negative seed raises ``ValueError`` up front.
    """
    require_nonnegative(seed=seed)
    return _Search(instance, initial_lb, budget or Budget(), seed, trace).run()
