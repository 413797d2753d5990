"""End-to-end tests for the command-line interface."""

import dataclasses
import io
import json
import sys
from fractions import Fraction

import pytest

from cheeger import dinkelbach, maxcut, split_bound
from cheeger.cli import main
from cheeger.graphs import (
    Graph,
    brute_force_bisection,
    cycle,
    dump_graph,
    gnp,
    load_graph,
)
from cheeger.transforms import MaxCutInstance, dump_instance

C6_TEXT = "6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"


def run(argv, capsys, monkeypatch=None, stdin=""):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_emits_parseable_edge_list(capsys):
    code, out, _ = run(["gen", "cycle", "6"], capsys)
    assert code == 0
    g = load_graph(out)
    assert (g.n, g.m) == (6, 6)


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(["gen", "gnp", "5"], capsys)
    assert code == 2
    assert "probability" in err


def test_solve_methods_agree_on_c6(tmp_path, capsys):
    p = tmp_path / "c6.graph"
    p.write_text(C6_TEXT)
    for method in ("split-bound", "dinkelbach", "brute"):
        code, out, _ = run(
            ["solve", "--method", method, "--format", "csv", str(p)], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == method
        assert (row[4], row[5]) == ("2", "3")


def test_solve_json_format(tmp_path, capsys):
    p = tmp_path / "c6.graph"
    p.write_text(C6_TEXT)
    code, out, _ = run(["solve", "--format", "json", str(p)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert (payload["h_num"], payload["h_den"]) == (2, 3)
    assert len(payload["witness"]) == 3


def test_solve_writes_to_out_path(tmp_path, capsys):
    p = tmp_path / "c6.graph"
    p.write_text(C6_TEXT)
    dest = tmp_path / "report.json"
    code, out, _ = run(
        ["solve", "--format", "json", "--out", str(dest), str(p)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["h_num"] == 2


def test_solve_reads_stdin(capsys, monkeypatch):
    code, out, _ = run(["solve", "-"], capsys, monkeypatch, stdin=C6_TEXT)
    assert code == 0
    assert "2/3" in out


def test_solve_limit_exit_code(capsys, monkeypatch):
    gen_code, graph_text, _ = run(["gen", "gnp", "13", "0.4", "--seed", "1"],
                                  capsys)
    assert gen_code == 0
    code, out, _ = run(["solve", "--time-limit", "0", "-"],
                       capsys, monkeypatch, stdin=graph_text)
    assert code == 3
    assert "bounds" in out


@pytest.mark.parametrize("option,value", [
    ("--time-limit", "nan"),
    ("--time-limit", "-1"),
    ("--time-limit", "-inf"),
    ("--node-limit", "-1"),
    ("--node-limit", "1.5"),
    ("--seed", "-1"),
])
def test_bad_budgets_exit_two(capsys, option, value):
    # An elapsed > nan comparison is always False, so a NaN time limit
    # would switch every budget check off, and the engine's rounding
    # generator raises on a negative seed; argparse refuses both instead.
    with pytest.raises(SystemExit) as exc:
        main(["solve", f"{option}={value}", "-"])
    assert exc.value.code == 2
    assert f"argument {option}: not a nonnegative number" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--time-limit", "inf"), ("--node-limit", "0")])
def test_edge_budgets_are_accepted(capsys, monkeypatch, option, value):
    code, out, _ = run(["solve", option, value, "-"], capsys, monkeypatch, stdin=C6_TEXT)
    assert code in (0, 3)
    assert out.startswith("method      split-bound")


def test_workers_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--workers", "1", "-"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_solve_brute_refuses_large_graphs(capsys, monkeypatch):
    gen_code, graph_text, _ = run(["gen", "hypercube", "5"], capsys)
    assert gen_code == 0
    code, _, err = run(["solve", "--method", "brute", "-"],
                       capsys, monkeypatch, stdin=graph_text)
    assert code == 2
    assert "refusing" in err


def test_bounds_star_rows(tmp_path, capsys):
    star = Graph.build(6, [(0, i) for i in range(1, 6)])
    p = tmp_path / "star.graph"
    p.write_text(dump_graph(star))
    code, out, _ = run(["bounds", str(p)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,lower_num,lower_den,upper_num,upper_den,status"
    assert [l.split(",")[:5] for l in lines[1:]] == [
        ["1", "1", "1", "1", "1"],
        ["2", "1", "1", "1", "1"],
        ["3", "1", "1", "1", "1"],
    ]


def test_bounds_time_limit_marks_the_table(tmp_path, capsys):
    g = gnp(13, 0.4, seed=1)
    p = tmp_path / "g.graph"
    p.write_text(dump_graph(g))
    code, out, _ = run(["bounds", "--time-limit", "0", str(p)], capsys)
    assert code == 3
    rows = out.splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, 7))
    for row in rows:
        k, lo_n, lo_d, up_n, up_d = map(int, row.split(",")[:5])
        exact, _ = brute_force_bisection(g, k)
        assert Fraction(lo_n, lo_d) <= Fraction(exact, k) <= Fraction(up_n, up_d)


def test_graphs_beyond_the_relaxation_cap_exit_two(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("annealing started on a graph over the cap")

    monkeypatch.setattr(split_bound, "anneal_bisection", refuse)
    monkeypatch.setattr(dinkelbach, "best_expansion_witness", refuse)
    p = tmp_path / "c700.graph"
    p.write_text(dump_graph(cycle(700)))
    for argv in (
        ["solve", str(p)],
        ["bounds", str(p)],
        ["solve", "--method", "dinkelbach", str(p)],
        ["bounds", "--k", "3", str(p)],
        ["verify", "--lb", "1/2", str(p)],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "DIMENSION_CAP" in err


def test_bounds_single_cardinality(tmp_path, capsys):
    p = tmp_path / "c6.graph"
    p.write_text(C6_TEXT)
    code, out, _ = run(["bounds", "--k", "3", str(p)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "3,2,3,2,3,solved"
    code, _, err = run(["bounds", "--k", "9", str(p)], capsys)
    assert code == 2
    assert "k must lie" in err


def _bounds_k_row(path, k, capsys, *extra):
    code, out, _ = run(["bounds", "--k", str(k), *extra, str(path)], capsys)
    header, row = out.splitlines()
    assert header == "k,lower_num,lower_den,upper_num,upper_den,status"
    fields = row.split(",")
    lower = Fraction(int(fields[1]), int(fields[2]))
    upper = Fraction(int(fields[3]), int(fields[4]))
    return code, int(fields[0]), lower, upper, fields[5]


@pytest.mark.parametrize("n,p,seed", [(10, 0.4, 3), (11, 0.5, 5)])
def test_bounds_single_cardinality_matches_brute_force(tmp_path, capsys, n, p, seed):
    g = gnp(n, p, seed=seed)
    path = tmp_path / "g.graph"
    path.write_text(dump_graph(g))
    for k in range(1, g.n // 2 + 1):
        exact, _ = brute_force_bisection(g, k)
        assert _bounds_k_row(path, k, capsys) == (
            0, k, Fraction(exact, k), Fraction(exact, k), "solved")


def test_bounds_single_cardinality_limit_brackets_the_optimum(tmp_path, capsys, bounded):
    # The engine instance has one vertex more than the graph, so its root
    # is a bounded node, and a node limit of 1 stops the search there.
    # With no time at all, the search stops before its root.
    g = gnp(maxcut.LEAF_SIZE, 0.4, seed=1)
    path = tmp_path / "g.graph"
    path.write_text(dump_graph(g))
    for k in (3, 5):
        exact, _ = brute_force_bisection(g, k)
        for limit in (("--node-limit", "1"), ("--time-limit", "0")):
            code, row_k, lower, upper, status = _bounds_k_row(path, k, capsys, *limit)
            assert (code, row_k, status) == (3, k, "pending"), limit
            assert lower <= Fraction(exact, k) <= upper
    assert bounded == [0, 0]


def test_bounds_single_cardinality_checks_the_witness(tmp_path, capsys, monkeypatch):
    # The exact step's witness check guards --k too: a decoded side of
    # the wrong size is an error, never a "solved" row.
    original = split_bound.solve_maxcut

    def flipped(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, mask=res.mask ^ 0b10)

    monkeypatch.setattr(split_bound, "solve_maxcut", flipped)
    p = tmp_path / "c6.graph"
    p.write_text(C6_TEXT)
    with pytest.raises(RuntimeError, match=r"inconsistent with sizes 3\.\.3 at ratio 0;"):
        main(["bounds", "--k", "3", str(p)])


def test_bounds_single_cardinality_without_nodes_is_pending(tmp_path, capsys):
    g = gnp(11, 0.4, seed=3)
    path = tmp_path / "g.graph"
    path.write_text(dump_graph(g))
    exact, _ = brute_force_bisection(g, 3)
    code, k, lower, upper, status = _bounds_k_row(path, 3, capsys, "--node-limit", "0")
    assert (code, k, status) == (3, 3, "pending")
    assert lower <= Fraction(exact, 3) <= upper


def test_verify_exit_codes(tmp_path, capsys):
    p = tmp_path / "c6.graph"
    p.write_text(C6_TEXT)
    code, out, _ = run(["verify", "--lb", "2/3", str(p)], capsys)
    assert (code, out.strip()) == (0, "valid: 2/3 <= h(G)")
    code, out, _ = run(["verify", "--lb", "7/10", str(p)], capsys)
    assert code == 1
    assert "refuted" in out and "2/3" in out
    code, out, _ = run(["verify", "--lb", "0", str(p)], capsys)
    assert code == 0
    code, _, err = run(["verify", "--lb=-1/2", str(p)], capsys)
    assert code == 2
    assert "nonnegative" in err


def test_maxcut_solves_instance_with_trace(tmp_path, capsys):
    inst = MaxCutInstance.build([
        [0, 3, 2, 0],
        [3, 0, -1, 4],
        [2, -1, 0, 1],
        [0, 4, 1, 0],
    ])
    p = tmp_path / "inst.w"
    p.write_text(dump_instance(inst))
    trace = tmp_path / "trace.csv"
    code, out, _ = run(["maxcut", str(p), "--trace", str(trace)], capsys)
    assert code == 0
    assert "value      10" in out
    assert "side       {2 3}" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "node,depth,bound,incumbent"
    assert lines[1].startswith("0,0,")


def test_maxcut_without_nodes_reports_the_limit(capsys, monkeypatch):
    code, out, _ = run(["maxcut", "--node-limit", "0", "-"], capsys, monkeypatch,
                       stdin="4 4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n")
    assert code == 3
    assert "status     limit\nnodes      0\nbest_bound inf\n" in out


def test_parse_failures_exit_two(tmp_path, capsys, monkeypatch):
    code, _, err = run(["solve", "-"], capsys, monkeypatch, stdin="garbage\n")
    assert code == 2
    assert "line 1" in err
    code, _, err = run(["solve", str(tmp_path / "missing.graph")], capsys)
    assert code == 2
