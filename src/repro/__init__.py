"""repro: reproduction of Grahne, Sippu & Soisalon-Soininen (PODS 1987 / JLP 1991).

"Efficient Evaluation for a Subset of Recursive Queries" -- an evaluation
strategy for regularly and linearly recursive Datalog queries that translates
recursion into demand-driven graph traversal.

Public API overview
-------------------
``repro.datalog``
    The Datalog substrate: programs, parser, database, analysis, least-model
    semantics.
``repro.relalg``
    Binary relations and relational expressions (union, composition,
    reflexive transitive closure), equation systems, and the Hunt et al.
    expression-graph baseline.
``repro.engines``
    Baseline strategies the paper compares against: naive, seminaive,
    top-down SLD with memoisation, Henschen--Naqvi, magic sets, counting and
    reverse counting.
``repro.core``
    The paper's contribution: the Lemma 1 program-to-equations
    transformation, the automaton construction M(e)/EM(p, i), the
    graph-traversal evaluator of Figures 4--5, the adornment and
    binary-chain transformation of Section 4, and an end-to-end planner.
``repro.workloads``
    Generators for the paper's experimental workloads (same-generation
    samples of Figures 7--8, the flight database, random graphs).
``repro.session``
    The serving layer: versioned databases, cached materializations with
    incremental resume, prepared/parameterized queries
    (:class:`~repro.session.QuerySession`).
``repro.config``
    The evaluation settings: one frozen :class:`~repro.config.EvalConfig`
    per thread, changed for a block with :func:`~repro.config.configured`.

Quickstart
----------
>>> from repro import parse_program, parse_query, evaluate_query
>>> program = parse_program('''
...     sg(X, Y) :- flat(X, Y).
...     sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
...     up(a, b).  flat(b, b).  down(b, c).
... ''')
>>> sorted(evaluate_query(program, parse_query("sg(a, Y)")).answers)
[('c',)]
"""

from .datalog import (
    Constant,
    Database,
    Delta,
    Literal,
    Program,
    ProgramAnalysis,
    Rule,
    Variable,
    analyze,
    answer_query,
    least_model,
    parse_literal,
    parse_program,
    parse_query,
    parse_rules,
)
from .config import EvalConfig, configured, current_config
from .instrumentation import Counters

__version__ = "1.0.0"

__all__ = [
    "Constant",
    "Counters",
    "Database",
    "Delta",
    "EvalConfig",
    "Literal",
    "Program",
    "ProgramAnalysis",
    "Rule",
    "Variable",
    "analyze",
    "answer_query",
    "configured",
    "current_config",
    "evaluate_query",
    "least_model",
    "parse_literal",
    "parse_program",
    "parse_query",
    "parse_rules",
    "QuerySession",
    "__version__",
]


def __getattr__(name):
    # Lazy re-export of the session layer (it pulls in the engines and the
    # planner, which ``import repro`` should not pay for unconditionally).
    if name == "QuerySession":
        from .session import QuerySession

        return QuerySession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def evaluate_query(program, query, database=None, **options):
    """Evaluate ``query`` against ``program`` using the paper's strategy.

    Thin convenience wrapper around :func:`repro.core.planner.evaluate_query`
    (imported lazily so that ``import repro`` stays cheap).
    """
    from .core.planner import evaluate_query as _evaluate_query

    return _evaluate_query(program, query, database=database, **options)
