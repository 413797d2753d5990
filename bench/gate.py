"""Correctness gate: every timed solve is checked, none is skipped.

A solve passes only when it reports status ``solved`` with equal bounds,
carries a witness of size 1..n/2 whose cut ratio equals the answer, and
the answer equals the reference value: the closed form on cycles, an
exhaustive enumeration on random graphs.  Where a workload runs both
methods on one graph they must agree, and every solve of a graph and
method must render ``canonical_json`` bytes with the same digest as the
first such solve, in this run or in an earlier run of the same workload
seed whose digests are passed in.  Exceptions count as failures.

The enumeration here is the benchmark's own, independent of the program:
it runs outside the timed region, in chunks so that it does not raise
the peak memory the benchmark reports.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

CHUNK_BITS = 12
ENUMERATION_LIMIT = 24


def exact_h(n: int, edges) -> Fraction:
    """h(G) = min cut(S)/|S| over 1 <= |S| <= n/2, by enumerating all S."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration refused at n={n}")
    best_cut = [None] * (n // 2 + 1)
    chunk = 1 << min(n, CHUNK_BITS)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, start + chunk, dtype=np.int64)
        bits = [(masks >> v) & 1 for v in range(n)]
        size = sum(bits)
        cut = sum(bits[u] ^ bits[v] for u, v in edges)
        for k in range(1, n // 2 + 1):
            at_k = cut[size == k]
            if at_k.size:
                low = int(at_k.min())
                if best_cut[k] is None or low < best_cut[k]:
                    best_cut[k] = low
    return min(Fraction(best_cut[k], k) for k in range(1, n // 2 + 1))


def reference_answers(graphs: dict) -> dict:
    """Reference h per label of ``{label: (n, edges, closed form or None)}``."""
    return {
        label: closed if closed is not None else exact_h(n, edges)
        for label, (n, edges, closed) in graphs.items()
    }


def cut_size(edges, subset) -> int:
    inside = set(subset)
    return sum((u in inside) != (v in inside) for u, v in edges)


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()


def problems(report, n: int, edges, expected: Fraction) -> list[str]:
    """Everything wrong with one report; empty when the solve is correct."""
    found = []
    if report.status != "solved":
        found.append(f"status {report.status}")
    if report.lower != report.upper:
        found.append(f"bounds differ: {report.lower} < {report.upper}")
    witness = report.witness
    if not 1 <= len(witness) <= n // 2 or len(set(witness)) != len(witness) or not all(
        0 <= v < n for v in witness
    ):
        found.append(f"witness of size {len(witness)} is not a subset of 1..{n // 2} vertices")
    elif Fraction(cut_size(edges, witness), len(witness)) != report.upper:
        found.append(f"witness ratio {cut_size(edges, witness)}/{len(witness)} != {report.upper}")
    if report.upper != expected:
        found.append(f"h = {report.upper}, expected {expected}")
    return found


class Ledger:
    """Attempted and failed solves, with the state the cross-checks need."""

    def __init__(self, expected: dict, canonical, digests: dict):
        self.expected = expected  # label -> h
        self.canonical = canonical  # report -> str, the program's canonical_json
        self.digests = dict(digests)  # "label/method" -> digest of the first solve
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._answers: dict = {}

    def fail(self, item, message: str):
        self.failed += 1
        self.messages.append(f"{item.label}/{item.method}: {message}")

    def record(self, item, report=None, error: BaseException | None = None):
        """Count one solve and check its report, or count its exception."""
        self.attempted += 1
        if error is not None:
            self.fail(item, f"{type(error).__name__}: {error}")
            return
        found = problems(report, item.n, item.edges, self.expected[item.label])
        seen = self._answers.setdefault(item.label, report.upper)
        if seen != report.upper:
            found.append(f"methods disagree: {report.upper} against {seen}")
        rendered = digest(self.canonical(report))
        if self.digests.setdefault(f"{item.label}/{item.method}", rendered) != rendered:
            found.append("canonical_json differs from the first solve of this graph")
        if found:
            self.fail(item, "; ".join(found))
