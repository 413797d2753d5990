"""Exact edge expansion (Cheeger constant) of simple connected graphs.

h(G) = min over subsets S with 1 <= |S| <= n/2 of |cut(S)| / |S|,
computed exactly by two interchangeable strategies on top of a
semidefinite-bounded branch-and-bound max-cut core:

* per-cardinality split & bound over bisection subproblems, and
* a discrete Newton iteration on the ratio objective.
"""

from cheeger.bounds import (
    cheap_bisection_bound,
    global_sdp_bound,
    spectral_bound,
)
from cheeger.dinkelbach import QEvaluation, dinkelbach_solve, evaluate_q
from cheeger.graphs import (
    ENUMERATION_GUARD,
    Graph,
    GraphFormatError,
    VertexSubset,
    brute_force_bisection,
    brute_force_h,
    brute_force_mincut,
    complete,
    cut_value,
    cycle,
    dump_graph,
    expansion,
    generate,
    gnp,
    hypercube,
    laplacian,
    load_graph,
    path,
)
from cheeger.maxcut import Budget, MaxCutResult, enumerate_maxcut, solve_maxcut
from cheeger.report import (
    BoundRow,
    SolveReport,
    TraceRow,
    bounds_csv,
    canonical_json,
    report_json,
    summary_csv,
    text_summary,
    trace_csv,
)
from cheeger.split_bound import (
    BoundsTable,
    LimitExceeded,
    pre_eliminate,
    split_and_bound,
    verify_lower_bound,
)
from cheeger.transforms import (
    MaxCutInstance,
    TransformError,
    bisection_to_maxcut,
    dinkelbach_to_maxcut,
    dump_instance,
    load_instance,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_GUARD",
    "BoundRow",
    "BoundsTable",
    "Budget",
    "Graph",
    "GraphFormatError",
    "LimitExceeded",
    "MaxCutInstance",
    "MaxCutResult",
    "QEvaluation",
    "SolveReport",
    "TraceRow",
    "TransformError",
    "VertexSubset",
    "bisection_to_maxcut",
    "bounds_csv",
    "brute_force_bisection",
    "brute_force_h",
    "brute_force_mincut",
    "canonical_json",
    "cheap_bisection_bound",
    "complete",
    "cut_value",
    "cycle",
    "dinkelbach_solve",
    "dinkelbach_to_maxcut",
    "dump_graph",
    "dump_instance",
    "enumerate_maxcut",
    "evaluate_q",
    "expansion",
    "generate",
    "global_sdp_bound",
    "gnp",
    "hypercube",
    "laplacian",
    "load_graph",
    "load_instance",
    "path",
    "pre_eliminate",
    "report_json",
    "solve_maxcut",
    "spectral_bound",
    "split_and_bound",
    "summary_csv",
    "text_summary",
    "trace_csv",
    "verify_lower_bound",
    "__version__",
]
