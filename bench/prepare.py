"""Set-up of one benchmark process: import, graph generation, warm-up.

``set_up`` is the whole set-up that ``setup_s`` measures.  Run as a
script, it sets up once in a fresh interpreter and prints the seconds it
took, so the benchmark can repeat a cold import several times per run:

    python3 bench/prepare.py <workload> <seed>
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from workloads import DINKELBACH, SPLIT, graphs, warmup_item

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
# One BLAS thread: the solves are single-threaded closed loops on small
# matrices, and pinning removes thread start-up and scheduling noise.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SOLVER_SEED = 0


def pin_blas_threads():
    for var in BLAS_ENV:
        os.environ[var] = "1"


def source_present() -> bool:
    return (SRC_DIR / "cheeger" / "__init__.py").is_file()


def import_program():
    """Import ``cheeger`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import cheeger

    if Path(cheeger.__file__).resolve().parent != SRC_DIR / "cheeger":
        raise ImportError(f"cheeger imported from {cheeger.__file__}, not {SRC_DIR}")
    return cheeger


def solver(cheeger, method: str):
    return {SPLIT: cheeger.split_and_bound, DINKELBACH: cheeger.dinkelbach_solve}[method]


def set_up(workload: str, seed: int):
    """Import the program, build the workload's graphs, run the warm-up.

    Returns ``(cheeger module, {label: Graph}, seconds)``.
    """
    started = time.perf_counter()
    cheeger = import_program()
    built = {
        label: cheeger.Graph.build(n, edges)
        for label, (n, edges, _) in graphs(workload, seed).items()
    }
    warm = warmup_item(workload, seed)
    solver(cheeger, warm.method)(
        cheeger.Graph.build(warm.n, warm.edges), seed=SOLVER_SEED, workers=1
    )
    return cheeger, built, time.perf_counter() - started


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: prepare.py <workload> <seed>", file=sys.stderr)
        return 2
    pin_blas_threads()
    _, _, seconds = set_up(argv[0], int(argv[1]))
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
