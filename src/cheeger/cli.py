"""Command-line front end.

Subcommands
-----------
solve
    Exact h(G) by the chosen method; text, JSON, or one-row CSV output.
bounds
    Per-cardinality lower and upper bisection bounds from the
    pre-elimination pass, or with ``--k`` one cardinality solved by the
    split-and-bound exact step.
verify
    Check a claimed lower bound on h(G); prints a refuting subset when
    the claim fails.
gen
    Emit a generated graph in edge-list format.
maxcut
    Run the branch-and-bound engine on a raw weighted instance, with an
    optional per-node trace CSV.

Exit codes: 0 success (for ``verify``: bound valid), 1 bound refuted,
2 bad input, 3 budget exhausted.  The ``CHEEGER_LOG`` environment
variable sets the logging level for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from fractions import Fraction

from cheeger.dinkelbach import dinkelbach_solve
from cheeger.graphs import (
    brute_force_h,
    cut_value,
    dump_graph,
    expansion,
    generate,
    load_graph,
    sniff_format,
)
from cheeger.maxcut import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, Budget, solve_maxcut
from cheeger.report import (
    SolveReport,
    bounds_csv,
    bounds_json,
    node_trace_csv,
    report_json,
    summary_csv,
    text_summary,
)
from cheeger.split_bound import (
    LimitExceeded,
    pre_eliminate,
    solve_cardinality,
    split_and_bound,
    verify_lower_bound,
)
from cheeger.transforms import load_instance

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _nonnegative(kind):
    """Argument type for budgets and seeds: ``kind`` values >= 0, not NaN."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"not a nonnegative number: {text!r}")
        return value
    return parse


def _add_budget_options(p: argparse.ArgumentParser):
    p.add_argument("--time-limit", type=_nonnegative(float), default=DEFAULT_TIME_LIMIT,
                   metavar="S", help="wall-clock budget in seconds "
                   f"(default {DEFAULT_TIME_LIMIT:g})")
    p.add_argument("--node-limit", type=_nonnegative(int), default=DEFAULT_NODE_LIMIT,
                   metavar="N", help="total branch-and-bound node budget "
                   f"(default {DEFAULT_NODE_LIMIT})")
    p.add_argument("--seed", type=_nonnegative(int), default=0, metavar="S",
                   help="seed for heuristics and rounding (default 0)")


def _add_output_options(p: argparse.ArgumentParser, default_format: str):
    p.add_argument("--format", choices=("csv", "json", "text"),
                   default=default_format,
                   help=f"output rendering (default {default_format})")
    p.add_argument("--out", metavar="PATH",
                   help="write the report to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cheeger",
        description="Exact edge expansion h(G) of simple connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute h(G) exactly")
    solve.add_argument("graph", help="graph file, or - for stdin")
    solve.add_argument("--method", default="split-bound",
                       choices=("split-bound", "dinkelbach", "brute"))
    _add_budget_options(solve)
    _add_output_options(solve, "text")

    bounds = sub.add_parser(
        "bounds", help="per-cardinality bisection bounds from pre-elimination")
    bounds.add_argument("graph", help="graph file, or - for stdin")
    bounds.add_argument("--k", type=int, metavar="K",
                        help="solve the size-K bisection exactly instead")
    _add_budget_options(bounds)
    _add_output_options(bounds, "csv")

    verify = sub.add_parser("verify", help="check a claimed lower bound on h(G)")
    verify.add_argument("graph", help="graph file, or - for stdin")
    verify.add_argument("--lb", type=_rational, required=True, metavar="A/B",
                        help="claimed lower bound, a nonnegative rational")
    _add_budget_options(verify)

    gen = sub.add_parser("gen", help="emit a generated graph in edge-list form")
    gen.add_argument("family",
                     choices=("complete", "cycle", "path", "hypercube", "gnp"))
    gen.add_argument("params", nargs="+",
                     help="family parameters: n, or n and edge probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", metavar="PATH")

    maxcut = sub.add_parser(
        "maxcut", help="run the branch-and-bound engine on a weight matrix")
    maxcut.add_argument("instance", help="instance file, or - for stdin")
    maxcut.add_argument("--trace", metavar="PATH",
                        help="write a per-node search trace CSV to PATH")
    _add_budget_options(maxcut)
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph_file(path: str):
    text = _read_text(path)
    return load_graph(text, fmt=sniff_format(text))


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


_REPORT_RENDERERS = {"json": report_json, "csv": summary_csv, "text": text_summary}


def _cmd_solve(args) -> int:
    g = _load_graph_file(args.graph)
    if args.method == "brute":
        h, witness = brute_force_h(g)
        report = SolveReport(
            method="brute", n=g.n, m=g.m, status="solved",
            lower=h, upper=h, witness=witness.indices(),
            interesting=0, root_solved=0, nodes=0, iterations=0,
            seed=args.seed, preelim_ms=0.0, total_ms=0.0,
        )
    else:
        solver = split_and_bound if args.method == "split-bound" else dinkelbach_solve
        report = solver(
            g, seed=args.seed,
            node_limit=args.node_limit, time_limit=args.time_limit,
        )
    _emit(_REPORT_RENDERERS[args.format](report), args.out)
    return EXIT_OK if report.status == "solved" else EXIT_LIMIT


def _bounds_text(rows) -> str:
    lines = [f"{'k':>3} {'lower':>10} {'upper':>10}  status"]
    for row in rows:
        lines.append(
            f"{row.k:>3} {str(row.lower):>10} {str(row.upper):>10}  {row.status}"
        )
    return "\n".join(lines) + "\n"


def _cmd_bounds(args) -> int:
    g = _load_graph_file(args.graph)
    if args.k is None:
        table = pre_eliminate(g, seed=args.seed, budget=Budget(time_limit=args.time_limit))
        rows, limited = table.rows(), table.cut_short
    else:
        if not 1 <= args.k <= g.n // 2:
            raise ValueError(f"k must lie in [1, {g.n // 2}], got {args.k}")
        row = solve_cardinality(
            g, args.k, seed=args.seed,
            node_limit=args.node_limit, time_limit=args.time_limit,
        )
        rows, limited = (row,), row.status == "pending"
    if args.format == "json":
        text = bounds_json(g.n, g.m, rows)
    elif args.format == "text":
        text = _bounds_text(rows)
    else:
        text = bounds_csv(rows)
    _emit(text, args.out)
    return EXIT_LIMIT if limited else EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph_file(args.graph)
    try:
        ok, certificate = verify_lower_bound(
            g, args.lb, seed=args.seed,
            node_limit=args.node_limit, time_limit=args.time_limit,
        )
    except LimitExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    if ok:
        print(f"valid: {args.lb} <= h(G)")
        return EXIT_OK
    members = " ".join(str(v + 1) for v in certificate.indices())
    ratio = expansion(g, certificate)
    print(f"refuted: S = {{{members}}} has cut {cut_value(g, certificate)} "
          f"and expansion {ratio} < {args.lb}")
    return EXIT_REFUTED


def _cmd_gen(args) -> int:
    if args.family == "gnp":
        if len(args.params) != 2:
            raise ValueError("gnp takes n and an edge probability")
        g = generate("gnp", int(args.params[0]), float(args.params[1]),
                     args.seed)
        label = f"gnp {args.params[0]} {args.params[1]} seed {args.seed}"
    else:
        if len(args.params) != 1:
            raise ValueError(f"{args.family} takes a single size parameter")
        g = generate(args.family, int(args.params[0]))
        label = f"{args.family} {args.params[0]}"
    _emit(dump_graph(g, comment=label), args.out)
    return EXIT_OK


def _cmd_maxcut(args) -> int:
    inst = load_instance(_read_text(args.instance))
    trace_rows: list | None = [] if args.trace else None
    res = solve_maxcut(
        inst, budget=Budget(args.node_limit, args.time_limit),
        seed=args.seed, trace=trace_rows,
    )
    if args.trace:
        _emit(node_trace_csv(trace_rows), args.trace)
    if res.mask is None:
        side = "-"
    else:
        members = [str(i + 1) for i in range(inst.n) if res.mask >> i & 1]
        side = "{" + " ".join(members) + "}"
    sys.stdout.write(
        f"value      {res.value}\n"
        f"status     {res.status}\n"
        f"nodes      {res.nodes}\n"
        f"best_bound {res.best_bound:.6f}\n"
        f"side       {side}\n"
    )
    return EXIT_OK if res.status in ("optimal", "bound-stop") else EXIT_LIMIT


def main(argv=None) -> int:
    level = os.environ.get("CHEEGER_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO),
                            stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
        "maxcut": _cmd_maxcut,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        # Bad input of any kind: a malformed file (GraphFormatError and
        # TransformError are ValueErrors), a refused value, a missing path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
