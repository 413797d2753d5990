"""Exact-solve benchmark for cheeger: wall time per corpus, split by layer.

    python3 bench/run.py --workload split-mid --seed 1 --seconds 30 --trace 0

One fresh process per run.  It sets up (import, graph generation, one
warm-up solve; ``setup_s`` times it in fresh child processes), computes the
reference answers outside the timed region, then solves the workload's
corpus as a closed loop: one caller, solves back to back, ``workers=1``
and a fixed solver seed, until ``--seconds`` would be exceeded.  Every
solve goes through the correctness gate in ``gate.py``.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` every pass is traced, and the last line carries the
per-layer metrics of ``spans.py``.  The lines
before it print every metric with its unit, the failure count and the
provenance of the run.  See README.md for the workloads and the layers.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import prepare
import spans
from workloads import WORKLOADS, corpus, graphs

# setup_s is the median set-up of this many fresh child interpreters.
SETUP_CHILDREN = 5
CHILD_TIMEOUT = 120.0
# Every corpus entry is solved at least this often, and its time is the
# median of its repeats, so one solve slowed or sped up by the host does
# not move it (README.md, "Run-to-run noise").
MIN_REPEATS = 3

# canonical_json digests of earlier runs, one file per workload and seed,
# so that every run of a seed in this checkout is held to the first one.
DIGEST_DIR = prepare.BENCH_DIR.parent / ".bench_build" / "digests"

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.max", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_setup_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, as a user's process pays it."""
    out = subprocess.run(
        [sys.executable, str(prepare.BENCH_DIR / "prepare.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def load_digests(workload: str, seed: int) -> dict:
    path = DIGEST_DIR / f"{workload}-{seed}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def save_digests(workload: str, seed: int, digests: dict):
    DIGEST_DIR.mkdir(parents=True, exist_ok=True)
    path = DIGEST_DIR / f"{workload}-{seed}.json"
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(digests, sort_keys=True))
    os.replace(scratch, path)


def solve(cheeger, built, item, ledger, tracer=None):
    """Run one solve, check it, and return ``(seconds, report or None)``."""
    fn = prepare.solver(cheeger, item.method)
    graph = built[item.label]
    report = error = None
    started = time.perf_counter()
    try:
        with tracer.span("solve") if tracer else contextlib.nullcontext():
            report = fn(graph, seed=prepare.SOLVER_SEED, workers=1)
    except Exception as exc:  # counted as a failed solve, never skipped
        error = exc
    seconds = time.perf_counter() - started
    ledger.record(item, report, error)
    return seconds, report


def closed_loop(cheeger, built, items, ledger, budget, whole_passes, tracer=None):
    """Solve ``items`` in order, round after round, within ``budget`` seconds.

    The first pass always completes.  Without ``whole_passes`` the first
    ``MIN_REPEATS`` passes do, and after them a solve starts only if its
    last duration still fits in the budget.  With ``whole_passes`` a
    further pass starts only if the mean pass still fits.  A run thus
    ends near ``budget`` without cutting a solve short.
    Returns ``[(item, seconds, report)]`` and the number of whole passes.
    """
    samples = []
    last: dict = {}
    started = time.perf_counter()
    for index in itertools.count():
        item = items[index % len(items)]
        done, position = divmod(index, len(items))
        if done:
            elapsed = time.perf_counter() - started
            if whole_passes:
                if position == 0 and elapsed + elapsed / done > budget:
                    break
            elif done >= MIN_REPEATS and elapsed + last[item] > budget:
                break
        seconds, report = solve(cheeger, built, item, ledger, tracer)
        last[item] = seconds
        samples.append((item, seconds, report))
    return samples, index // len(items)


def entry_seconds(samples) -> dict:
    """Median repeat of each corpus entry, ``"label/method"`` -> seconds.

    ``solve_s.p50`` is the median of these, not of single solves: on a
    corpus of entries of very different lengths the median single solve
    jumps between two entries (README.md, "Run-to-run noise").
    """
    per_item: dict = {}
    for item, seconds, _ in samples:
        per_item.setdefault(f"{item.label}/{item.method}", []).append(seconds)
    return {key: statistics.median(v) for key, v in per_item.items()}


def end_to_end(entry: dict, setup_seconds) -> dict:
    return {
        "wall_s": sum(entry.values()),
        "solve_s.p50": statistics.median(entry.values()),
        "solve_s.max": max(entry.values()),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, read from the library."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found or {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def provenance(args, items, samples, passes, digests) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": [f"{i.label}/{i.method}" for i in items],
        "solves": len(samples),
        "passes": passes,
        "entry_s": entry_seconds(samples),
        "solver_seed": prepare.SOLVER_SEED,
        "workers": 1,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "blas_threads": _blas_threads(),
        "digests": digests,
    }


def measure(args) -> dict:
    """The whole run; returns the result object of the last output line."""
    children = 0 if args.trace else SETUP_CHILDREN  # setup_s is an end-to-end metric
    setup_seconds = [child_setup_seconds(args.workload, args.seed) for _ in range(children)]
    cheeger, built, _ = prepare.set_up(args.workload, args.seed)
    # Imported only now: gate imports numpy, which must load after
    # pin_blas_threads has set OpenBLAS to one thread.
    from gate import Ledger, reference_answers

    items = corpus(args.workload, args.seed)
    ledger = Ledger(reference_answers(graphs(args.workload, args.seed)),
                    cheeger.canonical_json, load_digests(args.workload, args.seed))
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            samples, passes = closed_loop(cheeger, built, items, ledger, args.seconds,
                                          whole_passes=True, tracer=tracer)
        finally:
            tracer.unwrap()
        traced_wall = sum(s for _, s, _ in samples) / passes
        reports = [(i.method, r) for i, _, r in samples if r is not None]
        values = spans.layer_metrics(tracer, reports, passes, traced_wall)
        units = dict(spans.LAYER_METRICS)
    else:
        samples, passes = closed_loop(cheeger, built, items, ledger, args.seconds,
                                      whole_passes=False)
        values = end_to_end(entry_seconds(samples), setup_seconds)
        units = dict(END_TO_END)

    for name, value in values.items():
        print(f"{name:26s} {value:14.6f} {units[name]}")
    print(f"{'failed_frac':26s} {ledger.failed / ledger.attempted:14.6f} ratio"
          f"  ({ledger.failed} of {ledger.attempted} solves)")
    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    save_digests(args.workload, args.seed, ledger.digests)
    print("provenance " + json.dumps(provenance(args, items, samples, passes, ledger.digests)))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare.source_present():
        print(f"error: no cheeger sources under {prepare.SRC_DIR}", file=sys.stderr)
        return 2
    prepare.pin_blas_threads()
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
