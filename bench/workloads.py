"""The benchmark workloads: which graphs each one solves, with which method.

Every workload is a fixed list of graph shapes.  The workload seed picks a
uniformly random relabelling of each graph, so every seed hands the
program different inputs (nothing can key on vertex labels) while the
amount of work per seed stays the same: on every relabelling tried, the
solvers' node counts and survivor counts did not change.  Random shapes come from
fixed generator seeds for the same reason.  Fresh G(n, p) draws per seed
would change the work itself: split & bound on G(20, 0.3) takes from
1.0 s to 18 s depending on the draw, which no per-run bound could absorb.
README.md gives the reason for each shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from graphgen import cycle_edges, gnp_edges, relabel

SPLIT = "split"
DINKELBACH = "dinkelbach"


@dataclass(frozen=True)
class Shape:
    """A graph before relabelling: a cycle (``p is None``) or G(n, p)."""

    label: str
    n: int
    p: float | None = None
    base_seed: int = 0

    def edges(self) -> list[tuple[int, int]]:
        if self.p is None:
            return cycle_edges(self.n)
        return gnp_edges(self.n, self.p, self.base_seed)

    def closed_form(self) -> Fraction | None:
        """h(C_n) = 2 / floor(n/2); None where only enumeration knows h."""
        return Fraction(2, self.n // 2) if self.p is None else None


@dataclass(frozen=True)
class Workload:
    shapes: tuple[Shape, ...]
    methods: tuple[str, ...]


# The graph of the untimed warm-up solve, the same for every workload.
WARMUP = Shape("C12", 12)

WORKLOADS = {
    "split-mid": Workload(
        shapes=(
            Shape("C18", 18),
            Shape("G20-9", 20, 0.3, 9),
        ),
        methods=(SPLIT,),
    ),
    "ratio-ring": Workload(
        shapes=(Shape("C16", 16), Shape("C17", 17)),
        methods=(DINKELBACH,),
    ),
    "small-mixed": Workload(
        shapes=(
            Shape("G14-1", 14, 0.4, 1),
            Shape("G15-1", 15, 0.4, 1),
            Shape("G16-1", 16, 0.4, 1),
        ),
        methods=(SPLIT, DINKELBACH),
    ),
}


@dataclass(frozen=True)
class Item:
    """One solve of the corpus: a relabelled graph and a method."""

    label: str
    method: str
    n: int
    edges: tuple[tuple[int, int], ...]


def graphs(workload: str, seed: int) -> dict[str, tuple[int, tuple, Fraction | None]]:
    """Relabelled graphs of a workload: label -> (n, edges, closed form)."""
    out = {}
    for shape in WORKLOADS[workload].shapes:
        rng = random.Random(f"{workload}/{seed}/{shape.label}")
        out[shape.label] = (
            shape.n, tuple(relabel(shape.n, shape.edges(), rng)), shape.closed_form(),
        )
    return out


def corpus(workload: str, seed: int) -> list[Item]:
    """The solves of one corpus pass, in the order they run."""
    methods = WORKLOADS[workload].methods
    return [
        Item(label, method, n, edges)
        for label, (n, edges, _) in graphs(workload, seed).items()
        for method in methods
    ]


def warmup_item(workload: str, seed: int) -> Item:
    """The untimed warm-up solve: the workload's last method on C_12.

    Split & bound on C_12 runs annealing, the cheap SDP and leaf
    enumeration.  The Dinkelbach instance of a 12-vertex graph has 19
    vertices, one over the leaf size, so it also reaches the node SDP.
    """
    rng = random.Random(f"{workload}/{seed}/warmup")
    return Item(WARMUP.label, WORKLOADS[workload].methods[-1], WARMUP.n,
                tuple(relabel(WARMUP.n, WARMUP.edges(), rng)))
