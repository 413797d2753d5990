"""Exact edge expansion by per-cardinality splitting with certified bounds.

The expansion h(G) is the minimum over k of the cardinality-k bisection
ratio cut(S)/k.  The solver works the cardinalities instead of the whole
subset lattice:

1.  For every k up to n/2, compute a certified rational lower bound on
    the ratio (cheap relaxation) and a heuristic upper bound (annealing).
    Any k whose lower bound reaches the best upper bound anywhere cannot
    host the optimum and is eliminated before exact work starts.
2.  Survivors, each re-checked against the best ratio, are solved
    exactly in ascending order of their annealed upper bounds.  Each
    exact solve runs the branch-and-bound engine on the penalized
    bisection instance with an injected threshold tied to the best
    ratio so far, so a subproblem that cannot improve the answer dies
    at its root node.  Every improvement tightens the threshold for
    the remaining k.

A verification mode reuses the loop with the candidate bound installed
as the starting threshold: the candidate is a valid lower bound on h(G)
exactly when the run finishes without ever finding a better cut.
``solve_cardinality`` runs the same exact step on one cardinality with
no threshold.  Each run builds one ``maxcut.Budget``: pre-elimination
reads its clock, and every exact solve charges its nodes to it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .annealing import anneal_bisection
from .bounds import cheap_bisection_bound, fallback_bisection_bound, spectral_bound
from .graphs import Graph, VertexSubset, cut_value, edge_connectivity
from .maxcut import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    Budget,
    require_nonnegative,
    solve_maxcut,
)
from .report import BoundRow, SolveReport
from .sdp import SdpError
from .transforms import bisection_to_maxcut, require_relaxation_fits

log = logging.getLogger(__name__)


class LimitExceeded(RuntimeError):
    """Raised by verification when resource limits end the run early."""


@dataclass
class BoundsTable:
    """Per-cardinality bounds plus the global incumbent ratio.

    ``lower[k]`` is a certified lower bound on cut(S)/k over size-k
    subsets; ``upper_cut[k]`` is the best known size-k cut value with
    its subset in ``witness[k]``.  ``ustar`` is the smallest ratio seen
    anywhere, always backed by a genuine cut.  ``cut_short`` marks a
    table whose later rows were filled in after the time limit, from the
    eigenvalue bound and the first k vertices.
    """

    n: int
    lower: dict = field(default_factory=dict)
    upper_cut: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    ustar: Fraction | None = None
    ustar_witness: VertexSubset | None = None
    cut_short: bool = False

    def upper(self, k: int) -> Fraction:
        return Fraction(self.upper_cut[k], k)

    def survivors(self) -> list:
        return [k for k in sorted(self.status) if self.status[k] == "pending"]

    def offer(self, ratio: Fraction, subset: VertexSubset) -> bool:
        """Install a genuine cut as the incumbent if it is better.

        Returns True only on a strict ratio improvement over an existing
        threshold.  Ties on the ratio prefer the lexicographically
        smaller vertex tuple so reported witnesses are reproducible.
        """
        improved = self.ustar is not None and ratio < self.ustar
        if self.ustar is None or ratio < self.ustar:
            self.ustar = ratio
            self.ustar_witness = subset
        elif ratio == self.ustar and (
            self.ustar_witness is None
            or subset.indices() < self.ustar_witness.indices()
        ):
            self.ustar_witness = subset
        return improved

    def rows(self) -> tuple:
        out = []
        for k in sorted(self.status):
            out.append(
                BoundRow(
                    k=k,
                    lower=self.lower[k],
                    upper=self.upper(k),
                    status=self.status[k],
                    witness=self.witness[k].indices(),
                )
            )
        return tuple(out)


def cheap_lower_bound(g: Graph, k: int) -> Fraction:
    """Certified lower bound on the size-k bisection ratio.

    The semidefinite relaxation, with the eigenvalue bound as a fallback
    when the solver fails on an instance.  Always at least 1/k: the
    graph is connected, so every nonempty proper subset is cut.
    """
    try:
        return cheap_bisection_bound(g, k)
    except SdpError as exc:
        log.warning("relaxation failed for k=%d (%s); eigenvalue fallback", k, exc)
        return fallback_bisection_bound(g, k, spectral_bound(g))


def pre_eliminate(
    g: Graph,
    seed: int = 0,
    initial_ustar: Fraction | None = None,
    budget: Budget | None = None,
) -> BoundsTable:
    """Bound every cardinality and drop those that cannot host the optimum.

    Lower bounds come from the certified relaxation (with an eigenvalue
    fallback if the solver fails), upper bounds from one annealing run
    per k.  Each run stops once its cut reaches the larger of the edge
    connectivity and the lower bound times k, which no size-k cut
    undercuts, so the early stop returns the full run's cut.  A
    cardinality survives only while its lower bound is strictly below
    the best ratio seen anywhere.  When ``initial_ustar``
    is given it acts as the starting threshold and annealing results
    only tighten it through genuine cuts.

    Cardinalities are taken in increasing order.  Once the time limit of
    ``budget`` (default ``Budget()``) has passed (k = 1 is always bounded
    in full, so an incumbent exists), each remaining k gets the
    rationalized eigenvalue bound and the cut of its first k vertices
    instead, and the table is marked ``cut_short``.  No search runs here,
    so the node limit does not apply.  A negative ``seed``, or relaxations
    (order n + 1) over ``sdp.DIMENSION_CAP``, raise ``ValueError``.
    With ``CHEEGER_LOG=INFO`` each k logs its bounds and how its upper
    bound was found.
    """
    require_nonnegative(seed=seed)
    require_relaxation_fits(g.n + 1)
    budget = budget or Budget()
    connectivity = edge_connectivity(g)
    table = BoundsTable(n=g.n)
    if initial_ustar is not None:
        table.ustar = initial_ustar
    for k in range(1, g.n // 2 + 1):
        if not table.cut_short and k > 1 and budget.out_of_time():
            table.cut_short = True
            half_lambda = spectral_bound(g)
        if table.cut_short:
            table.lower[k] = fallback_bisection_bound(g, k, half_lambda)
            subset = VertexSubset.from_indices(g.n, range(k))
            cut = cut_value(g, subset)
            how = "first k vertices, time limit"
        else:
            table.lower[k] = cheap_lower_bound(g, k)
            bound_cut = math.ceil(table.lower[k] * k)
            lower_cut = max(connectivity, bound_cut)
            cut, subset = anneal_bisection(g, k, seed=seed, lower_cut=lower_cut)
            stop = "stopped at" if cut == lower_cut else "full schedule above"
            how = (f"annealed, {stop} floor {lower_cut} "
                   f"(connectivity {connectivity}, bound cut {bound_cut})")
        log.info("pre-elimination k=%d: lower bound %s, cut %d, %s",
                 k, table.lower[k], cut, how)
        table.upper_cut[k] = cut
        table.witness[k] = subset
        table.offer(Fraction(cut, k), subset)
    for k in sorted(table.lower):
        if table.lower[k] < table.ustar:
            table.status[k] = "pending"
        else:
            table.status[k] = "eliminated-pre"
    return table


def _exact_order(table: BoundsTable) -> list:
    """Survivors in ascending order of their upper bounds."""
    return sorted(table.survivors(), key=lambda k: (table.upper(k), k))


def _exact_bisection(
    g: Graph,
    k: int,
    upper_cut: int,
    threshold: int | None,
    seed: int,
    budget: Budget,
):
    """Solve the size-k bisection exactly through its max-cut form.

    ``upper_cut`` is any genuine size-k cut value; it sets the penalty
    weight.  With a ``threshold`` the engine only has to find a cut
    strictly below it and otherwise reports "bound-stop"; without one
    it runs to optimality.  Returns ``(result, cut, subset)``, where the
    cut and its subset are None unless the engine found the optimum, and
    are checked by ``AnchorReduction.witness`` when it did.
    """
    red = bisection_to_maxcut(g, k, upper_cut)
    res = solve_maxcut(
        red.instance,
        initial_lb=None if threshold is None else red.offset - threshold,
        budget=budget,
        seed=seed,
    )
    if res.status != "optimal":
        return res, None, None
    return (res, *red.witness(res))


@dataclass
class _ExactPhase:
    attempts: int = 0
    root_solved: int = 0
    hit_limit: bool = False
    violation: VertexSubset | None = None


def _run_exact_phase(
    g: Graph,
    table: BoundsTable,
    seed: int,
    budget: Budget,
    stop_on_improvement: bool,
) -> _ExactPhase:
    """Solve surviving cardinalities against the moving threshold.

    Survivors are taken in ascending order of their pre-elimination
    upper bounds, which also set the penalty weights.  Each one is
    solved with the injected threshold ``offset - ceil(ustar * k)``.
    With ``stop_on_improvement`` the phase returns at the first genuine
    cut below the starting threshold, which is the verification mode.
    The shared budget is checked before every exact solve.
    """
    phase = _ExactPhase()
    for k in _exact_order(table):
        if table.lower[k] >= table.ustar:
            table.status[k] = "eliminated-update"
            continue
        if budget.exhausted():
            phase.hit_limit = True
            return phase
        res, exact_cut, subset = _exact_bisection(
            g, k, table.upper_cut[k], math.ceil(table.ustar * k),
            seed * 131 + k, budget,
        )
        phase.attempts += 1
        if res.nodes == 1:
            phase.root_solved += 1
        if res.status == "limit":
            phase.hit_limit = True
            return phase
        if res.status == "bound-stop":
            table.status[k] = "eliminated-root"
            continue
        table.status[k] = "solved"
        table.upper_cut[k] = exact_cut
        table.witness[k] = subset
        improved = table.offer(Fraction(exact_cut, k), subset)
        if improved and stop_on_improvement:
            phase.violation = subset
            return phase
    return phase


def solve_cardinality(
    g: Graph,
    k: int,
    seed: int = 0,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> BoundRow:
    """One cardinality through pre-elimination's annealing and the exact step.

    The size-k bisection is annealed once, as in pre-elimination, and
    then solved to optimality with no threshold; ``seed`` drives both.
    When the budget runs out first the row is "pending" and brackets the
    optimum between the cheap lower bound and the annealed cut.
    """
    budget = Budget(node_limit, time_limit)
    require_nonnegative(seed=seed)
    require_relaxation_fits(g.n + 1)
    cut, subset = anneal_bisection(g, k, seed=seed, lower_cut=edge_connectivity(g))
    _, exact_cut, exact_subset = _exact_bisection(g, k, cut, None, seed, budget)
    if exact_subset is None:
        return BoundRow(k, cheap_lower_bound(g, k), Fraction(cut, k), "pending",
                        subset.indices())
    ratio = Fraction(exact_cut, k)
    return BoundRow(k, ratio, ratio, "solved", exact_subset.indices())


def split_and_bound(
    g: Graph,
    seed: int = 0,
    workers: int = 1,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> SolveReport:
    """Exact h(G) with witness, by elimination and per-k exact solves.

    Parameters
    ----------
    g : Graph
    seed : int
        Drives annealing and the inner engine; a fixed seed reproduces
        the run bit for bit.
    workers : int
        Accepted for compatibility; only 1 is valid, because the engine
        runs one search loop.
    node_limit, time_limit : the limits of the one ``Budget`` that
        pre-elimination and every exact solve share.  A run cut short
        reports "limit", with a lower bound that is valid for the
        cardinalities it never reached.

    Raises
    ------
    ValueError
        If ``workers`` is not 1, if a budget or the seed is NaN or
        negative, or if the relaxations, of order n + 1, exceed
        ``sdp.DIMENSION_CAP``.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}: the search runs in one loop")
    budget = Budget(node_limit, time_limit)
    require_nonnegative(seed=seed)
    table = pre_eliminate(g, seed=seed, budget=budget)
    preelim_ms = budget.elapsed() * 1000.0
    interesting = len(table.survivors())
    phase = _run_exact_phase(g, table, seed, budget, stop_on_improvement=False)
    if phase.hit_limit:
        status = "limit"
        lower = min([table.lower[k] for k in table.survivors()] + [table.ustar])
    else:
        status = "solved"
        lower = table.ustar
    return SolveReport(
        method="split-bound",
        n=g.n,
        m=g.m,
        status=status,
        lower=lower,
        upper=table.ustar,
        witness=table.ustar_witness.indices(),
        interesting=interesting,
        root_solved=phase.root_solved,
        nodes=budget.nodes,
        iterations=phase.attempts,
        seed=seed,
        preelim_ms=preelim_ms,
        total_ms=budget.elapsed() * 1000.0,
        table=table.rows(),
    )


def verify_lower_bound(
    g: Graph,
    upsilon: Fraction,
    seed: int = 0,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
):
    """Decide whether ``upsilon <= h(G)``, with a refuting cut on failure.

    Runs the split-and-bound loop with ``upsilon`` installed as the
    threshold.  The claim holds exactly when no genuine cut with ratio
    below ``upsilon`` turns up; the first such cut is returned as the
    certificate otherwise.

    Returns
    -------
    (bool, VertexSubset or None)
        ``(True, None)`` when the bound is valid, else ``(False, S)``
        with ratio(S) < upsilon.

    Raises
    ------
    LimitExceeded
        If the node or time budget runs out before the question is
        settled.
    ValueError
        On a negative ``upsilon``, budget or seed, a NaN budget, or if the
        relaxations, of order n + 1, exceed ``sdp.DIMENSION_CAP``.
    """
    budget = Budget(node_limit, time_limit)
    require_nonnegative(seed=seed)
    upsilon = Fraction(upsilon)
    if upsilon < 0:
        raise ValueError("a lower bound candidate must be nonnegative")
    if upsilon == 0:
        return True, None
    table = pre_eliminate(g, seed=seed, initial_ustar=upsilon, budget=budget)
    if table.ustar < upsilon:
        return False, table.ustar_witness
    phase = _run_exact_phase(g, table, seed, budget, stop_on_improvement=True)
    if phase.violation is not None:
        return False, phase.violation
    if phase.hit_limit:
        raise LimitExceeded(
            f"budget exhausted before verifying {upsilon} on n={g.n}"
        )
    return True, None
