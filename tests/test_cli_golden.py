"""Golden test of every CLI rendering, byte for byte.

Each case runs ``cheeger.cli.main`` in a scratch directory holding the
input files below and records the exit code, stdout, stderr and any file
the command wrote.  It covers every subcommand and ``--format``, the
limit paths, and the ``error:`` lines.  Only timing fields are masked.

After a deliberate change to a rendering, regenerate the expected file
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review the
diff of ``tests/cli_golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cheeger.cli import main
from cheeger.graphs import cycle, dump_graph, gnp, hypercube

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

C6 = "6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n"
C6_DIMACS = "c six cycle\np edge 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\n"
INSTANCE = "4 5\n1 2 3\n1 3 2\n2 3 -1\n2 4 4\n3 4 1\n"

INPUTS = {
    "c6.graph": C6,
    "c6.dimacs": C6_DIMACS,
    "star.graph": "6 5\n1 2\n1 3\n1 4\n1 5\n1 6\n",
    "g13.graph": dump_graph(gnp(13, 0.4, 1)),
    "g18.graph": dump_graph(gnp(18, 0.4, 1)),
    "c700.graph": dump_graph(cycle(700)),
    "inst.w": INSTANCE,
}

# name -> (argv, stdin)
CASES = {
    "gen-cycle": (["gen", "cycle", "6"], ""),
    "gen-path-out": (["gen", "path", "5", "--out", "out.graph"], ""),
    "gen-complete": (["gen", "complete", "4"], ""),
    "gen-hypercube": (["gen", "hypercube", "2"], ""),
    "gen-gnp": (["gen", "gnp", "8", "0.5", "--seed", "3"], ""),
    "gen-gnp-missing-p": (["gen", "gnp", "5"], ""),
    "gen-cycle-extra": (["gen", "cycle", "5", "6"], ""),
    "gen-cycle-too-small": (["gen", "cycle", "2"], ""),
    "gen-cycle-not-int": (["gen", "cycle", "x"], ""),
    "gen-unknown-family": (["gen", "star", "5"], ""),
    "solve-stdin": (["solve", "-"], C6),
    "solve-dimacs": (["solve", "c6.dimacs"], ""),
    "solve-out": (["solve", "--format", "json", "--out", "rep.json", "c6.graph"], ""),
    "solve-g13-json": (["solve", "--format", "json", "g13.graph"], ""),
    "solve-dinkelbach-g13-json": (
        ["solve", "--method", "dinkelbach", "--format", "json", "g13.graph"], ""),
    "solve-limit-text": (["solve", "--time-limit", "0", "g13.graph"], ""),
    "solve-limit-json": (["solve", "--time-limit", "0", "--format", "json", "g13.graph"], ""),
    "solve-dinkelbach-limit-csv": (
        ["solve", "--method", "dinkelbach", "--time-limit", "0", "--format", "csv",
         "g13.graph"], ""),
    "solve-garbage": (["solve", "-"], "garbage\n"),
    "solve-missing-file": (["solve", "missing.graph"], ""),
    "solve-bad-header": (["solve", "-"], "3 x\n1 2\n"),
    "solve-bad-endpoint": (["solve", "-"], "3 3\n1 x\n2 3\n1 3\n"),
    "solve-endpoint-range": (["solve", "-"], "3 3\n1 2\n2 5\n1 3\n"),
    "solve-short-row": (["solve", "-"], "3 3\n1 2 3\n2 3\n1 3\n"),
    "solve-edge-count": (["solve", "-"], "3 3\n1 2\n2 3\n"),
    "solve-self-loop": (["solve", "-"], "3 3\n1 1\n2 3\n1 3\n"),
    "solve-duplicate-edge": (["solve", "-"], "3 3\n1 2\n2 1\n1 3\n"),
    "solve-disconnected": (["solve", "-"], "4 2\n1 2\n3 4\n"),
    "solve-empty": (["solve", "-"], "# nothing\n"),
    "solve-dimacs-bad-record": (["solve", "-"], "p edge 3 2\ne 1 2\nx 2 3\n"),
    "solve-dimacs-short-edge": (["solve", "-"], "c x\np edge 3 2\ne 1 2 3\ne 2 3\n"),
    "solve-brute-too-large": (["solve", "--method", "brute", "-"], dump_graph(hypercube(5))),
    "solve-over-cap": (["solve", "c700.graph"], ""),
    "solve-dinkelbach-over-cap": (["solve", "--method", "dinkelbach", "c700.graph"], ""),
    "solve-bad-budget": (["solve", "--time-limit", "nan", "c6.graph"], ""),
    "bounds-star": (["bounds", "star.graph"], ""),
    "bounds-out": (["bounds", "--out", "b.csv", "c6.graph"], ""),
    "bounds-k-limit": (["bounds", "--k", "5", "--time-limit", "0", "g18.graph"], ""),
    "bounds-k-too-large": (["bounds", "--k", "9", "c6.graph"], ""),
    "bounds-k-zero": (["bounds", "--k", "0", "c6.graph"], ""),
    "bounds-k-over-cap": (["bounds", "--k", "3", "c700.graph"], ""),
    "verify-valid": (["verify", "--lb", "2/3", "c6.graph"], ""),
    "verify-refuted": (["verify", "--lb", "7/10", "c6.graph"], ""),
    "verify-zero": (["verify", "--lb", "0", "c6.graph"], ""),
    "verify-negative": (["verify", "--lb=-1/2", "c6.graph"], ""),
    "verify-not-rational": (["verify", "--lb", "x", "c6.graph"], ""),
    "verify-undecided": (["verify", "--lb", "5/3", "--time-limit", "0", "g13.graph"], ""),
    "verify-over-cap": (["verify", "--lb", "1/2", "c700.graph"], ""),
    "verify-missing-file": (["verify", "--lb", "1/2", "missing.graph"], ""),
    "maxcut": (["maxcut", "inst.w"], ""),
    "maxcut-trace": (["maxcut", "inst.w", "--trace", "trace.csv"], ""),
    "maxcut-stdin": (["maxcut", "-"], "3 0\n"),
    "maxcut-empty": (["maxcut", "-"], "# nothing\n"),
    "maxcut-header": (["maxcut", "-"], "4\n1 2 3\n"),
    "maxcut-short-row": (["maxcut", "-"], "3 1\n1 2\n"),
    "maxcut-duplicate": (["maxcut", "-"], "3 2\n1 2 0\n2 1 4\n"),
    "maxcut-missing-file": (["maxcut", "missing.w"], ""),
}
for _fmt in ("text", "csv", "json"):
    for _method in ("split-bound", "dinkelbach", "brute"):
        CASES[f"solve-{_method}-{_fmt}"] = (
            ["solve", "--method", _method, "--format", _fmt, "c6.graph"], "")
    CASES[f"bounds-{_fmt}"] = (["bounds", "--format", _fmt, "c6.graph"], "")
    CASES[f"bounds-k-{_fmt}"] = (["bounds", "--k", "3", "--format", _fmt, "c6.graph"], "")
    CASES[f"bounds-limit-{_fmt}"] = (
        ["bounds", "--time-limit", "0", "--format", _fmt, "g13.graph"], "")

# Python float reprs: every number in the rendered forms that is not an integer.
_FLOAT = r"-?\d+(?:\.\d*(?:e[-+]?\d+)?|e[-+]?\d+)"
# The timing fields of each rendering of a SolveReport.
_TIMINGS = (
    (re.compile(r"(preelim|total)=\d+\.\dms"), r"\1=<ms>ms"),
    (re.compile(r"^((?:split-bound|dinkelbach|brute),.*),\d+\.\d{3},\d+\.\d{3}$", re.M),
     r"\1,<ms>,<ms>"),
    (re.compile(rf'("(?:preelim|total)_ms": ){_FLOAT}'), r"\1<ms>"),
    # The last cell of each report_json trace row is its milliseconds.
    (re.compile(rf'(,\n +){_FLOAT}(\n +\])'), r"\1<ms>\2"),
)


def _mask(text: str) -> str:
    for pattern, repl in _TIMINGS:
        text = pattern.sub(repl, text)
    return text


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and return what it printed and wrote."""
    argv, stdin = CASES[name]
    for fname, text in INPUTS.items():
        (workdir / fname).write_text(text)
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd, real_stdin = os.getcwd(), sys.stdin
    os.chdir(workdir)
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = real_stdin
        os.chdir(cwd)
    written = {f: _mask((workdir / f).read_text())
               for f in sorted(set(os.listdir(workdir)) - before)}
    return {"code": code, "out": _mask(out.getvalue()), "err": err.getvalue(),
            "files": written}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_rendering_is_unchanged(name, golden, tmp_path):
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    records = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            records[case] = run_case(case, Path(scratch))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
