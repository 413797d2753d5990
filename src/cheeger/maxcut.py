"""Exact branch-and-bound max-cut over integer-weighted complete graphs.

Upper bounds come from the semidefinite relaxation with unit diagonal,
tightened where it pays by Lagrange-dualized triangle inequalities tuned
by a projected subgradient with Polyak steps.  Lower bounds come from
hyperplane rounding of the relaxation's matrix followed by single-flip
descent.  Branching contracts a vertex into vertex 0, once per side, so
every subproblem is again a plain max-cut on one fewer vertex; small
subproblems are closed by exhaustive enumeration.

Node bounds solve ``sdp.UnitDiagonalSdp``, whose operators act
elementwise on the diagonal, so no generic constraint rows are built on
the hot path.  Enumeration meets in the middle: one sign table per half
of the vertices, and the cuts of a block of high-half codes against all
low-half codes at a time, so memory stays near 2^16 cuts plus two tables
of 2^(n/2) rows even at the 24-vertex cap.

All cut values are exact integers (guarded int64 arithmetic, or Python
integers in the same array expressions once weights are too wide for
int64); floats appear only inside relaxation bounds, which are certified
and therefore safe to floor against the integer incumbent.

An injected ``initial_lb`` turns the search into a threshold test: the
incumbent starts there without a witness, and if nothing beats it the
status reports "bound-stop", certifying the optimum is at most the
injected value.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import threading
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .sdp import SDP_TOL, UnitDiagonalSdp, sdp_solve
from .transforms import MaxCutInstance

DEFAULT_NODE_LIMIT = 10**6
DEFAULT_TIME_LIMIT = 3600.0
# Exhaustive leaf enumeration beats one more round of SDP bounding up to
# at least this order: an 18-vertex leaf enumerates in about 3 ms and a
# 20-vertex one in about 10 ms, while a bounded node costs about 50 ms of
# node SDP solves (2-vCPU Xeon).  A larger value changes node counts.
LEAF_SIZE = 18
# Triangle-inequality dualization schedule.  Dualizing is only attempted
# when the distance to the pruning threshold is within what the rounding
# gap suggests the inequalities can recover.
TRIANGLE_STEPS = 12
TRIANGLE_STALL_TOL = 2e-3
TRIANGLE_CAP_PER_VERTEX = 3
TRIANGLE_REACH = 0.6
POLYAK_MARGIN = 1e-3
# Guard against certificate roundoff when flooring a float bound.
FLOOR_SLACK = 1e-6
# int64 enumeration is safe while max |w| * N^2 stays under this.
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
    seconds: float


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


def improve_cut(weights, signs) -> tuple[int, list[int]]:
    """Steepest single-flip descent; returns the improved cut and signs.

    Weights are symmetric with a zero diagonal and signs are +-1.  With
    r = W s, the starting cut is exact integer arithmetic on sums the
    descent needs anyway: 4 cut = sum(W) - s.r, because sum(W) counts
    each pair twice and s.r counts an uncut pair +2w and a cut one -2w.
    """
    n = len(weights)
    s = list(signs)
    r = [sum(map(operator.mul, row, s)) for row in weights]
    value = (sum(map(sum, weights)) - sum(map(operator.mul, s, r))) // 4
    while True:
        best_gain = 0
        best_i = -1
        for i in range(n):
            gain = s[i] * r[i]
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_i < 0:
            return value, s
        s[best_i] = -s[best_i]
        value += best_gain
        for j in range(n):
            if j != best_i:
                r[j] += 2 * s[best_i] * weights[best_i][j]


def gw_round(x: np.ndarray, rng: np.random.Generator, rounds: int = GW_ROUNDS):
    """Hyperplane rounding of a PSD matrix; yields sign vectors.

    Pure rounding: a rank-one matrix s s^T comes back as exactly s for
    every hyperplane.  Descent is the caller's business.
    """
    n = x.shape[0]
    vals, vecs = np.linalg.eigh((x + x.T) / 2.0)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    dirs = rng.standard_normal((rounds, n))
    signs = np.sign(dirs @ factor.T)
    signs[signs == 0] = 1.0
    out = []
    for row in signs:
        s = [int(v) for v in row]
        if s[0] < 0:
            s = [-v for v in s]
        out.append(s)
    return out


def _sign_table(bits: int, dtype) -> np.ndarray:
    """Row c holds 1 - 2 * (bit j of c) in column j, for every code c."""
    codes = np.arange(1 << bits, dtype=np.int64)[:, None]
    return (1 - 2 * ((codes >> np.arange(bits, dtype=np.int64)) & 1)).astype(dtype)


def enumerate_maxcut(instance_or_weights) -> tuple[int, int]:
    """Exact maximum cut by enumeration; returns (value, mask).

    The mask keeps vertex 0 on side 0; code bit i - 1 is vertex i.  The
    free vertices split into a low half (with vertex 0) and a high half,
    and every cut is the quadratic form of its two half sign vectors:

        4 cut = 2 total - (q_high + q_low + 2 s_high W[high, low] s_low).

    Row-major order of the (high code, low code) table is code order, so
    taking the first maximum block by block gives the first maximizer.
    Blocks of high codes keep at most about ``ENUM_BLOCK`` cuts in memory.
    Arithmetic is int64 while every intermediate, at most
    2 max|w| n^2, stays representable, and exact Python integers
    otherwise.  Weights are symmetric with a zero diagonal.
    """
    if isinstance(instance_or_weights, MaxCutInstance):
        weights = [list(row) for row in instance_or_weights.weights]
    else:
        weights = [list(row) for row in instance_or_weights]
    n = len(weights)
    if n > 24:
        raise ValueError("enumeration capped at 24 vertices")
    if n == 1:
        return 0, 0
    total = sum(weights[i][j] for i in range(n) for j in range(i + 1, n))
    max_w = max((abs(weights[i][j]) for i in range(n) for j in range(i + 1, n)), default=0)
    dtype = np.int64 if max_w * n * n < ENUM_INT64_LIMIT else object
    w = np.array(weights, dtype=dtype)
    low = (n - 1) // 2
    split = low + 1
    s_low = np.hstack([np.ones((1 << low, 1), dtype=dtype), _sign_table(low, dtype)])
    s_high = _sign_table(n - split, dtype)
    q_low = ((s_low @ w[:split, :split]) * s_low).sum(axis=1)
    q_high = ((s_high @ w[split:, split:]) * s_high).sum(axis=1)
    w_cross = w[split:, :split] @ s_low.T
    rows = max(1, ENUM_BLOCK >> low)
    best_val = None
    best_code = 0
    for start in range(0, len(s_high), rows):
        stop = start + rows
        quad = q_high[start:stop, None] + q_low[None, :] + 2 * (s_high[start:stop] @ w_cross)
        cuts = (2 * total - quad) // 4
        at = int(np.argmax(cuts))
        value = int(cuts.flat[at])
        if best_val is None or value > best_val:
            best_val = value
            best_code = (start << low) + at
    return best_val, best_code << 1


@cache
def _triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns i < j < k of every vertex triple, in lexicographic order."""
    t = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    return t[:, 0], t[:, 1], t[:, 2]


# Sign patterns (a, b, c) of a X_ij + b X_ik + c X_jk >= -1, one per column.
_TRIANGLE_SIGNS = np.array(((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))).T


def _separate_triangles(x: np.ndarray, cap: int):
    """Most-violated triangle inequalities at x, as (i, j, k, a, b, c).

    The violation -(a x_ij + b x_ik + c x_jk) - 1 is evaluated in that
    order, and ties break on (i, j, k, a, b, c), so the selection is
    exactly that of a plain loop over triples and patterns.
    """
    i, j, k = _triples(x.shape[0])
    a, b, c = _TRIANGLE_SIGNS
    viol = -(a * x[i, j][:, None] + b * x[i, k][:, None] + c * x[j, k][:, None]) - 1.0
    t, p = np.nonzero(viol > 1e-4)
    cols = (i[t], j[t], k[t], a[p], b[p], c[p])
    order = np.lexsort(cols[::-1] + (-viol[t, p],))[:cap]
    return list(zip(*(col[order].tolist() for col in cols)))


def contract_pair(weights, pick, rel):
    """Fold vertex ``pick`` onto vertex 0 and drop its row and column.

    ``rel = 1`` forces the pair onto the same side, ``rel = -1`` onto
    opposite sides.  Returns the reduced weight matrix and the constant
    shift, so that for the matching restriction of assignments

        maxcut(parent) = maxcut(reduced) + shift.

    The shift is zero for the same-side fold; the opposite fold banks the
    weights incident to ``pick`` because those pairs are now separated
    exactly when the corresponding pair with vertex 0 is not.
    """
    n = len(weights)
    if not 1 <= pick < n:
        raise ValueError("pick must be a non-anchor vertex")
    keep = [t for t in range(n) if t != pick]
    folded = [[weights[a][b] for b in keep] for a in keep]
    for new_t, t in enumerate(keep[1:], start=1):
        folded[0][new_t] += rel * weights[pick][t]
        folded[new_t][0] = folded[0][new_t]
    shift = 0
    if rel < 0:
        shift = sum(weights[pick][t] for t in range(n) if t != pick)
    return folded, shift


class _Search:
    def __init__(
        self,
        instance: MaxCutInstance,
        initial_lb,
        node_limit,
        time_limit,
        seed,
        workers,
        trace,
    ):
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.leaf_order = LEAF_SIZE
        self.seed = seed
        self.workers = max(1, workers)
        self.trace = trace
        self.started = time.monotonic()

        self.lock = threading.Condition()
        self.heap = []
        self.in_flight = 0
        self.nodes = 0
        self.next_id = 0
        self.push_seq = 0
        self.hit_limit = False
        self.error = None

        self.injected = initial_lb is not None
        self.incumbent = initial_lb if self.injected else 0
        self.incumbent_mask = None if self.injected else 0
        self.updated = False

        self.orig_n = instance.n
        weights = [list(row) for row in instance.weights]
        groups = tuple(((i, 1),) for i in range(instance.n))
        self.root = _Node(weights, 0, groups, 0, self._claim_id())

    def _claim_id(self):
        nid = self.next_id
        self.next_id += 1
        return nid

    def _elapsed(self):
        return time.monotonic() - self.started

    def _limits_exceeded(self):
        return self.nodes >= self.node_limit or self._elapsed() > self.time_limit

    # -- incumbent handling ------------------------------------------------

    def _offer(self, node: _Node, signs):
        """Try a candidate assignment on the original vertex set."""
        value, polished = improve_cut(node.weights, signs)
        value += node.const
        mask = 0
        for idx, group in enumerate(node.groups):
            side = polished[idx]
            for orig, rel in group:
                if side * rel < 0:
                    mask |= 1 << orig
        if mask & 1:
            mask ^= (1 << self.orig_n) - 1
        with self.lock:
            if value > self.incumbent:
                self.incumbent = value
                self.incumbent_mask = mask
                self.updated = True
        return value

    # -- bounding ----------------------------------------------------------

    def _bound(self, node: _Node):
        """Certified upper bound on node maxcut + const; rounds as it goes."""
        n = node.size
        lap = _signed_laplacian(node.weights)
        quarter = lap / 4.0
        rng = np.random.default_rng((self.seed, node.node_id))

        def solve(objective):
            sol = sdp_solve(UnitDiagonalSdp(-objective), tol=SDP_TOL, max_iterations=60)
            upper = -sol.certified_lower_bound(float(n))
            return upper, sol.x

        upper, x = solve(quarter)
        node.anchor_row = np.abs(x[0, 1:])
        bound = upper + node.const
        local_best = -math.inf
        for signs in gw_round(x, rng):
            local_best = max(local_best, self._offer(node, signs))
        if self._floor(bound) <= self.incumbent or n < 4:
            node.bound = bound
            return
        # Dualizing triangles is worth several extra solves only when the
        # remaining distance to the pruning threshold is small against the
        # gap between the relaxation and the best rounded cut here.
        need = bound - (self.incumbent + 1 - POLYAK_MARGIN)
        if need > TRIANGLE_REACH * max(0.0, bound - local_best):
            node.bound = bound
            return

        triangles = _separate_triangles(x, TRIANGLE_CAP_PER_VERTEX * n)
        if not triangles:
            node.bound = bound
            return
        gam = np.zeros(len(triangles))
        stalls = 0
        for _ in range(TRIANGLE_STEPS):
            # Every bound so far is certified, so stopping early stays sound.
            if self._elapsed() > self.time_limit:
                break
            objective = quarter.copy()
            for g_val, (i, j, k, a, b, c) in zip(gam, triangles):
                if g_val:
                    objective[i, j] += g_val * a / 2.0
                    objective[j, i] += g_val * a / 2.0
                    objective[i, k] += g_val * b / 2.0
                    objective[k, i] += g_val * b / 2.0
                    objective[j, k] += g_val * c / 2.0
                    objective[k, j] += g_val * c / 2.0
            inner_upper, x = solve(objective)
            f_val = float(gam.sum()) + inner_upper + node.const
            if f_val < bound - TRIANGLE_STALL_TOL * max(1.0, abs(bound)):
                bound = f_val
                stalls = 0
            else:
                bound = min(bound, f_val)
                stalls += 1
            for signs in gw_round(x, rng, rounds=6):
                self._offer(node, signs)
            with self.lock:
                target = self.incumbent + 1 - POLYAK_MARGIN
            if self._floor(bound) <= self.incumbent or stalls >= 2:
                break
            grad = np.empty(len(triangles))
            for t, (i, j, k, a, b, c) in enumerate(triangles):
                grad[t] = 1.0 + a * x[i, j] + b * x[i, k] + c * x[j, k]
            norm_sq = float(grad @ grad)
            if norm_sq < 1e-14:
                break
            step = (f_val - target) / norm_sq
            if step <= 0:
                break
            gam = np.maximum(0.0, gam - step * grad)
        node.bound = bound

    @staticmethod
    def _floor(bound):
        return math.floor(bound + FLOOR_SLACK)

    # -- life cycle of a node ----------------------------------------------

    def _admit(self, node: _Node, cap: float = math.inf):
        """Bound or enumerate a freshly created node, pushing if still open."""
        with self.lock:
            self.nodes += 1
        if node.size <= self.leaf_order:
            value, mask = enumerate_maxcut(node.weights)
            signs = [1 if not mask >> i & 1 else -1 for i in range(node.size)]
            self._offer(node, signs)
            self._log_node(node, value + node.const)
            return
        self._bound(node)
        node.bound = min(node.bound, cap)
        self._log_node(node, node.bound)
        with self.lock:
            if self._floor(node.bound) > self.incumbent:
                heapq.heappush(self.heap, (-node.bound, -node.depth, self.push_seq, node))
                self.push_seq += 1
                self.lock.notify_all()

    def _log_node(self, node: _Node, bound):
        if self.trace is None:
            return
        with self.lock:
            self.trace.append((node.node_id, node.depth, float(bound), self.incumbent))

    def _branch(self, node: _Node):
        row = node.anchor_row
        pick = 1 + int(np.argmin(row)) if row is not None and len(row) else 1
        for rel in (1, -1):
            weights, shift = contract_pair(node.weights, pick, rel)
            merged = node.groups[0] + tuple(
                (orig, rel * r) for orig, r in node.groups[pick]
            )
            keep = [t for t in range(node.size) if t != pick]
            groups = (merged,) + tuple(node.groups[t] for t in keep[1:])
            child = _Node(weights, node.const + shift, groups, node.depth + 1, None)
            with self.lock:
                child.node_id = self._claim_id()
            self._admit(child, cap=node.bound)

    def _worker_loop(self):
        while True:
            with self.lock:
                while not self.heap and self.in_flight > 0 and not self.hit_limit:
                    self.lock.wait(0.02)
                if self.hit_limit or (not self.heap and self.in_flight == 0):
                    self.lock.notify_all()
                    return
                if self._limits_exceeded():
                    self.hit_limit = True
                    self.lock.notify_all()
                    return
                _, _, _, node = heapq.heappop(self.heap)
                if self._floor(node.bound) <= self.incumbent:
                    continue
                self.in_flight += 1
            try:
                self._branch(node)
            except Exception as exc:
                # A lost subtree voids any optimality claim: stop every
                # worker and let run() re-raise once they have joined.
                with self.lock:
                    if self.error is None:
                        self.error = exc
                    self.hit_limit = True
                return
            finally:
                with self.lock:
                    self.in_flight -= 1
                    self.lock.notify_all()

    def run(self) -> MaxCutResult:
        self._admit(self.root)
        if self.heap:
            if self.workers == 1:
                self._worker_loop()
            else:
                threads = [
                    threading.Thread(target=self._worker_loop, daemon=True)
                    for _ in range(self.workers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        if self.error is not None:
            raise self.error

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
            seconds=self._elapsed(),
        )


def solve_maxcut(
    instance: MaxCutInstance,
    initial_lb: int | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    seed: int = 0,
    workers: int = 1,
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
    node_limit, time_limit : resource caps; exceeding either yields
        status "limit" with the incumbent and the best open bound.
    seed : int
        Drives hyperplane rounding; fixed seed makes runs reproducible.
    workers : int
        Concurrent bounding threads; 1 is the deterministic reference.
    trace : list, optional
        Collects one ``(node id, depth, bound, incumbent)`` row per
        processed node, in processing order.
    """
    search = _Search(
        instance,
        initial_lb,
        node_limit,
        time_limit,
        seed,
        workers,
        trace,
    )
    return search.run()
