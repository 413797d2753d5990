"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from graphgen import cycle_edges, gnp_edges  # noqa: E402

cheeger = prepare.import_program()

SMOKE = workloads.Workload(
    shapes=(workloads.Shape("C8", 8), workloads.Shape("G10-1", 10, 0.4, 1)),
    methods=(workloads.SPLIT, workloads.DINKELBACH),
)


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "smoke", SMOKE)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)
    # A child interpreter would not know the smoke workload: set up in-process.
    monkeypatch.setattr(run, "child_setup_seconds", lambda w, s: prepare.set_up(w, s)[2])
    monkeypatch.setattr(run, "DIGEST_DIR", tmp_path / "digests")
    monkeypatch.setattr(prepare, "pin_blas_threads", lambda: None)


def bench(capsys, trace: int) -> tuple[dict, str]:
    code = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


def test_every_metric_printed_with_its_unit(smoke, capsys):
    for trace, declared in ((0, run.END_TO_END), (1, spans.LAYER_METRICS)):
        result, out = bench(capsys, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 4
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(declared)
        for name, unit in declared:
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in out.splitlines())
        assert "failed_frac" in out and "provenance " in out


def test_wrong_answer_is_counted_as_failed(smoke, capsys, monkeypatch):
    real = prepare.solver

    def off_by_one(cheeger, method):
        def solve(graph, **kwargs):
            report = real(cheeger, method)(graph, **kwargs)
            return dataclasses.replace(report, lower=report.lower + 1, upper=report.upper + 1)
        return solve

    monkeypatch.setattr(prepare, "solver", off_by_one)
    result, out = bench(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 4


def test_exception_is_counted_as_failed(smoke, capsys, monkeypatch):
    real = prepare.solver

    def broken(cheeger, method):
        def solve(graph, **kwargs):
            if graph.n == workloads.WARMUP.n:  # set-up must still succeed
                return real(cheeger, method)(graph, **kwargs)
            raise RuntimeError("injected")
        return solve

    monkeypatch.setattr(prepare, "solver", broken)
    result, _ = bench(capsys, 0)
    assert result["failed"] == result["attempted"] >= 4


def test_digest_held_across_runs(smoke, capsys):
    first, out = bench(capsys, 0)
    digests = json.loads(out.split("provenance ", 1)[1].splitlines()[0])["digests"]
    assert first["failed"] == 0 and len(digests) == 4
    again, _ = bench(capsys, 1)
    assert again["failed"] == 0
    run.save_digests("smoke", 3, {key: "0" * 64 for key in digests})
    changed, _ = bench(capsys, 0)
    assert changed["failed"] == changed["attempted"] >= 4


def test_traced_self_times_fit_in_wall(smoke, capsys):
    result, _ = bench(capsys, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = ("solve.self_s", "annealing.s", "bounds.s", "sdp.cheap.s", "sdp.node.s",
                  "maxcut.s", "maxcut.enum.s", "maxcut.rounding.s")
    assert all(metrics[name] >= 0 for name in self_times)
    assert sum(metrics[name] for name in self_times) <= metrics["traced.wall_s"] + 1e-9


def test_tracer_restores_the_program():
    from cheeger import maxcut, split_bound

    before = (split_bound.solve_maxcut, maxcut.sdp_solve)
    tracer = spans.Tracer()
    spans.install(tracer)
    assert split_bound.solve_maxcut is not before[0]
    tracer.unwrap()
    assert (split_bound.solve_maxcut, maxcut.sdp_solve) == before


def test_enumeration_oracle_matches_brute_force():
    for n, edges in ((8, cycle_edges(8)), (11, gnp_edges(11, 0.4, 2)), (13, gnp_edges(13, 0.3, 5))):
        h, _ = cheeger.brute_force_h(cheeger.Graph.build(n, edges))
        assert gate.exact_h(n, edges) == h


def test_gate_flags_a_bad_witness():
    edges = cycle_edges(6)
    good = dataclasses.make_dataclass("R", ["status", "lower", "upper", "witness"])
    assert gate.problems(good("solved", Fraction(2, 3), Fraction(2, 3), (0, 1, 2)), 6, edges,
                         Fraction(2, 3)) == []
    assert gate.problems(good("solved", Fraction(2, 3), Fraction(2, 3), (0, 2, 4)), 6, edges,
                         Fraction(2, 3))
    assert gate.problems(good("limit", Fraction(1, 3), Fraction(2, 3), (0, 1, 2)), 6, edges,
                         Fraction(2, 3))


def test_relabelling_is_seeded():
    first = workloads.corpus("split-mid", 4)
    assert first == workloads.corpus("split-mid", 4)
    assert [i.edges for i in first] != [i.edges for i in workloads.corpus("split-mid", 5)]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "split-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
