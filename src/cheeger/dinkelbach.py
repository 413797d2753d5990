"""Edge expansion by a discrete Newton iteration on the ratio objective.

For a candidate ratio gamma = p/q in lowest terms, the integer objective

    Q(gamma) = min { q * cut(S) - p * |S| : 1 <= |S| <= n/2 }

is negative exactly when some cut beats the ratio, zero exactly when
gamma = h(G).  Each evaluation reduces to one exact max-cut solve via
the penalized encoding; the next candidate is the ratio of the returned
minimizer.  Denominators of the iterates never increase, and a repeated
denominator forces Q = 0, so the loop ends after at most floor(n/2)
ratio updates.

All gamma arithmetic is exact rational; all objectives are integers.
Every evaluation of a run charges one shared ``maxcut.Budget``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .annealing import best_expansion_witness
from .graphs import Graph, VertexSubset, cut_value
from .maxcut import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    Budget,
    require_nonnegative,
    solve_maxcut,
)
from .report import SolveReport, TraceRow
from .transforms import dinkelbach_to_maxcut, require_relaxation_fits, slack_weights


@dataclass(frozen=True)
class QEvaluation:
    """One exact evaluation of the parametric objective.

    ``witness`` is None exactly when the inner solver hit a limit and
    ``status`` carries that instead of "optimal".
    """

    value: int
    witness: VertexSubset | None
    nodes: int
    ms: float
    status: str


def _objective(g: Graph, gamma: Fraction, subset: VertexSubset) -> int:
    return (
        gamma.denominator * cut_value(g, subset)
        - gamma.numerator * subset.size
    )


def _shrink_witness(g: Graph, gamma: Fraction, subset: VertexSubset, value: int) -> VertexSubset:
    """Drop vertices while the objective stays at the minimum.

    Every equal-objective subset is itself a minimizer, so this only
    moves between optima; smaller supports tighten the denominator
    monotonicity of the outer loop.
    """
    current = subset
    changed = True
    while changed and current.size > 1:
        changed = False
        for v in current.indices():
            candidate = VertexSubset(g.n, current.mask ^ (1 << v))
            if candidate.size >= 1 and _objective(g, gamma, candidate) == value:
                current = candidate
                changed = True
                break
    return current


def evaluate_q(
    g: Graph,
    gamma: Fraction,
    seed: int = 0,
    budget: Budget | None = None,
) -> QEvaluation:
    """Exact Q(gamma) with a re-validated minimizer.

    The inner solve always runs to optimality (no injected threshold):
    the iteration needs a true argmin, not just the sign.  The decoded
    witness is checked against the graph directly; a mismatch means the
    encoding and the solver disagree and is raised as a hard error.
    The solve charges ``budget`` (default ``Budget()``).  A negative
    seed raises ``ValueError`` up front.
    """
    require_nonnegative(seed=seed)
    gamma = Fraction(gamma)
    started = time.monotonic()
    red = dinkelbach_to_maxcut(g, gamma)
    res = solve_maxcut(red.instance, budget=budget, seed=seed)
    ms = (time.monotonic() - started) * 1000.0
    if res.status != "optimal":
        return QEvaluation(0, None, res.nodes, ms, res.status)
    value = red.offset - res.value
    subset = red.decode_subset(res.mask)
    if not 1 <= subset.size <= g.n // 2 or _objective(g, gamma, subset) != value:
        raise RuntimeError(
            f"decoded ratio witness inconsistent at gamma={gamma}; "
            "the encoding or the solver is broken"
        )
    subset = _shrink_witness(g, gamma, subset, value)
    return QEvaluation(value, subset, res.nodes, ms, "optimal")


def dinkelbach_solve(
    g: Graph,
    seed: int = 0,
    workers: int = 1,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> SolveReport:
    """Exact h(G) by iterating gamma <- ratio of the Q-minimizer.

    Starts from the annealing heuristic's best ratio; every later
    candidate is the exact ratio of the previous minimizer, so each
    gamma is backed by a genuine cut and is a valid upper bound
    throughout.  Stops at Q(gamma) = 0, or at "limit" once the one
    ``Budget`` that every evaluation charges runs out.  ``workers`` is
    accepted for compatibility and must be 1.  Raises ``ValueError`` for
    any other ``workers``, for a NaN or negative budget or seed, or when
    the encoding (anchor, graph and two slack counters) exceeds
    ``sdp.DIMENSION_CAP``.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}: the search runs in one loop")
    budget = Budget(node_limit, time_limit)
    require_nonnegative(seed=seed)
    require_relaxation_fits(g.n + 1 + 2 * len(slack_weights(g.n)))
    gamma, witness = best_expansion_witness(g, seed=seed)
    preelim_ms = budget.elapsed() * 1000.0
    rows = []
    root_solved = 0
    status = "solved"
    prev_gamma = None
    prev_size = None
    evaluation = 1
    while True:
        if evaluation > g.n:
            raise AssertionError(
                f"ratio search at evaluation {evaluation} on n={g.n}; "
                "the termination argument is violated"
            )
        if budget.exhausted():
            status = "limit"
            break
        ev = evaluate_q(g, gamma, seed=seed * 977 + evaluation, budget=budget)
        if ev.status != "optimal":
            status = "limit"
            break
        if ev.nodes == 1:
            root_solved += 1
        rows.append(
            TraceRow(
                iteration=evaluation,
                gamma=gamma,
                q_value=ev.value,
                denominator=ev.witness.size,
                nodes=ev.nodes,
                ms=ev.ms,
            )
        )
        if ev.value > 0:
            raise AssertionError(
                f"Q({gamma}) = {ev.value} > 0 at a ratio backed by a cut"
            )
        if prev_gamma is not None and gamma >= prev_gamma:
            raise AssertionError("candidate ratios must strictly decrease")
        if prev_size is not None and ev.witness.size > prev_size:
            raise AssertionError("minimizer supports must not grow")
        if ev.value == 0:
            break
        prev_gamma = gamma
        prev_size = ev.witness.size
        witness = ev.witness
        gamma = Fraction(cut_value(g, ev.witness), ev.witness.size)
        evaluation += 1
    solved = status == "solved"
    return SolveReport(
        method="dinkelbach",
        n=g.n,
        m=g.m,
        status=status,
        lower=gamma if solved else Fraction(0),
        upper=gamma,
        witness=witness.indices(),
        interesting=0,
        root_solved=root_solved,
        nodes=budget.nodes,
        iterations=len(rows) - 1 if solved else len(rows),
        seed=seed,
        preelim_ms=preelim_ms,
        total_ms=budget.elapsed() * 1000.0,
        trace=tuple(rows),
    )
