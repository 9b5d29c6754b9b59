"""End-to-end query evaluation: classify, transform, traverse.

This module ties the pieces of the paper together into a single entry point,
:func:`evaluate_query`:

1. queries on base predicates are answered directly from the database;
2. for a *linear binary-chain* program the query is evaluated by Lemma 1 +
   the graph-traversal algorithm (Section 3), with the cyclic-data iteration
   bound applied automatically when the equation has the linear
   ``p = e0 ∪ e1·p·e2`` shape;
3. for other *linear* programs (n-ary relations, at most one derived literal
   per body) the Section 4 transformation is attempted: adorn, check the
   chain condition, transform to a binary-chain program, and evaluate that
   program with the same traversal machinery while the auxiliary relations
   are computed on demand;
4. anything else falls back to bottom-up evaluation of the least (or
   perfect) model by the stratified seminaive runtime (the paper's method
   simply does not apply; the fall-back keeps the public API total and
   charges what the seminaive engine charges).

The returned :class:`QueryAnswer` reports which strategy ran, the answers in
the same projection convention as
:func:`repro.datalog.semantics.answer_query`, and the work counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..config import current_config
from ..datalog.analysis import ProgramAnalysis, analyze
from ..datalog.database import Database
from ..datalog.errors import NotApplicableError
from ..datalog.literals import Literal
from ..datalog.rules import Program
from ..datalog.semantics import answer_against_relation, free_variable_order
from ..datalog.terms import Variable
from ..instrumentation import Counters
from .chain_transform import ChainTransformProvider, ChainTransformResult, transform_to_binary_chain
from .cyclic import decompose_linear, accessible_nodes
from .lemma1 import transform
from .queries import QueryEvaluator
from .traversal import DatabaseProvider, GraphTraversalEvaluator


@dataclass
class QueryAnswer:
    """The result of :func:`evaluate_query`.

    Attributes
    ----------
    answers:
        One tuple per instantiation of the query's distinct variables, in
        order of first occurrence (``{()}`` / ``set()`` for ground queries).
    strategy:
        Which evaluation path produced the answer: ``"base"``,
        ``"graph-traversal"``, ``"chain-transform"`` or ``"bottom-up"``.
    counters:
        Work counters accumulated while answering.
    iterations:
        Main-loop iterations of the traversal, when applicable.
    details:
        Strategy-specific extras (equation system, transformed program, ...).
    """

    answers: Set[Tuple[object, ...]]
    strategy: str
    counters: Counters
    iterations: int = 0
    details: Dict[str, object] = field(default_factory=dict)

    def values(self) -> Set[object]:
        """Convenience for single-variable queries: the bare answer values.

        Raises :class:`ValueError` when any answer tuple is not unary, the
        same contract as :meth:`repro.engines.base.EngineResult.values` --
        silently dropping wider tuples would misreport the answer set.
        """
        for answer in self.answers:
            if len(answer) != 1:
                raise ValueError(
                    f"values() needs unary answer tuples, got arity {len(answer)}; "
                    "use .answers for ground or multi-variable queries"
                )
        return {t[0] for t in self.answers}

    def __iter__(self):
        return iter(self.answers)

    def __len__(self):
        return len(self.answers)


def classify_query(
    program: Program,
    query: Literal,
    analysis: Optional[ProgramAnalysis] = None,
) -> str:
    """Which evaluation path ``strategy="auto"`` would try first, staticly.

    Returns ``"base"``, ``"graph"``, ``"chain"`` or ``"bottom-up"`` by the
    same dispatch order as :func:`evaluate_query`, but without evaluating
    anything.  The chain prediction runs the adornment-based binding-mode
    analysis (:func:`repro.datalog.diagnostics.chain_feasibility`, memoized
    per analysis and binding pattern), so a linear program whose adorned
    form violates the chain condition classifies ``"bottom-up"`` up front
    instead of predicting a path the transformation would reject.  The graph
    prediction stays structural and can still turn out inapplicable during
    transformation, in which case evaluation falls through exactly as under
    ``"auto"``.  The session layer (:mod:`repro.session`) reuses this to
    pick a serving strategy.
    """
    if query.predicate not in program.derived_predicates:
        return "base"
    if not program.is_positive:
        # Stratified programs (negation, aggregation) have no graph/chain
        # transformation; the bottom-up path computes the perfect model.
        return "bottom-up"
    analysis = analysis or analyze(program)
    if _graph_applicable(analysis, query):
        return "graph"
    if analysis.is_linear_program():
        from ..datalog.diagnostics import chain_feasibility

        feasible, _ = chain_feasibility(program, query, analysis)
        if feasible:
            return "chain"
    return "bottom-up"


def estimate_strategy_costs(
    program: Program,
    query: Literal,
    database: Database,
    analysis: Optional[ProgramAnalysis] = None,
) -> Dict[str, float]:
    """Estimated evaluation cost per serving strategy, from data statistics.

    Complements the purely syntactic :func:`classify_query`: where the
    classifier asks *which strategies apply*, this asks *what each would
    cost on this data*.  The full-model cost is the cost model's estimate
    of one round of every IDB rule body (:func:`repro.datalog.plans
    .estimated_body_cost` over a :class:`repro.stats.PlanStatistics` view);
    the demand strategies (graph traversal, magic sets) touch only the
    fraction of the model reachable from the query's bound constants, which
    the uniform model prices at ``1/|active domain|`` per bound argument --
    magic pays a further 2x for evaluating the rewritten (roughly doubled)
    program.  Units are arbitrary "row visits": only ratios between the
    returned entries are meaningful.  An unbound query gets no demand
    discount, so the model strategies win it, matching the session's
    legacy preference.  Under ``configured(plan="cost")`` the statistics are
    sharpened with :class:`repro.datalog.abstract.AbstractAnalysis`
    overrides: provably-empty derived predicates price at zero and finite
    inferred domains cap estimated cardinalities.
    """
    from ..datalog.plans import estimated_body_cost
    from ..stats import PlanStatistics

    overrides: Dict[str, int] = {}
    if current_config().plan == "cost":
        # Under the cost model, sharpen the statistics with the abstract
        # interpreter's verdicts: derived predicates proven empty cost
        # nothing, and all-finite inferred domains bound the cardinality
        # by the product of their widths.
        from ..datalog.abstract import AbstractAnalysis

        overrides = AbstractAnalysis.of(program, database).planner_overrides()
    statistics = PlanStatistics(database, overrides=overrides)
    model_cost = 1.0
    for rule in program.idb_rules():
        if rule.body:
            model_cost += estimated_body_cost(rule.body, statistics)
    bound_count = sum(1 for term in query.args if not isinstance(term, Variable))
    demand_fraction = 1.0
    if bound_count:
        adom = max(1, database.active_domain_size())
        demand_fraction = 1.0 / adom
    costs: Dict[str, float] = {
        "seminaive": model_cost,
        "graph": model_cost * demand_fraction,
        "magic": model_cost * demand_fraction * 2.0,
    }
    if query.predicate not in program.derived_predicates:
        relation = database.relations.get(query.predicate)
        costs["base"] = float(len(relation.table)) if relation is not None else 1.0
    return costs


def evaluate_query(
    program: Program,
    query: Literal,
    database: Optional[Database] = None,
    strategy: str = "auto",
    max_iterations: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> QueryAnswer:
    """Evaluate ``query`` against ``program`` (plus an optional external database).

    Parameters
    ----------
    strategy:
        ``"auto"`` picks the most specific applicable path; ``"graph"``,
        ``"chain"`` and ``"bottom-up"`` force a particular one (raising
        :class:`~repro.datalog.errors.NotApplicableError` when it does not
        apply).
    max_iterations:
        Explicit bound on traversal iterations.  When omitted, a bound is
        derived automatically for equations of the ``p = e0 ∪ e1·p·e2`` form
        (which makes the evaluation terminate even on cyclic data); other
        equations run unbounded, as in the paper.
    """
    counters = counters if counters is not None else Counters()
    full_database = _combined_database(program, database, counters)

    if strategy not in ("auto", "graph", "chain", "bottom-up"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if query.predicate not in program.derived_predicates:
        return _answer_base(full_database, query, counters)

    if not program.is_positive:
        if strategy in ("graph", "chain"):
            raise NotApplicableError(
                f"the {strategy} strategy requires a positive program; "
                "stratified programs evaluate bottom-up"
            )
        return _answer_bottom_up(program, query, full_database, counters)

    analysis = analyze(program)
    if strategy in ("auto", "graph") and _graph_applicable(analysis, query):
        try:
            return _answer_by_graph(program, analysis, query, full_database, counters, max_iterations)
        except NotApplicableError:
            if strategy == "graph":
                raise
    elif strategy == "graph":
        raise NotApplicableError(
            "graph strategy requires a linear binary-chain program and a binary query"
        )

    if strategy in ("auto", "chain") and analysis.is_linear_program():
        try:
            return _answer_by_chain_transform(
                program, query, full_database, counters, max_iterations
            )
        except NotApplicableError:
            if strategy == "chain":
                raise
    elif strategy == "chain":
        raise NotApplicableError("chain strategy requires a linear program")

    return _answer_bottom_up(program, query, full_database, counters)


# ---------------------------------------------------------------------------
# The individual strategies
# ---------------------------------------------------------------------------

def _combined_database(
    program: Program, database: Optional[Database], counters: Counters
) -> Database:
    """EDB + program facts as a copy-on-write overlay (never a row copy).

    Historically this copied the external database row by row per query; the
    overlay shares the caller's relations (and their built indexes) read-only
    and clones only what the evaluation writes, exactly as
    :meth:`repro.engines.base.Engine.answer` merges.
    """
    if database is not None:
        combined = Database.overlay(database, counters=counters)
    else:
        combined = Database(counters=counters)
    combined.load_program_facts(program)
    return combined


def _answer_base(database: Database, query: Literal, counters: Counters) -> QueryAnswer:
    rows = database.match(query)
    answers = answer_against_relation(rows, query)
    return QueryAnswer(answers=answers, strategy="base", counters=counters)


def _graph_applicable(analysis: ProgramAnalysis, query: Literal) -> bool:
    return (
        query.arity == 2
        and analysis.is_binary_chain_program()
        and analysis.is_linear_program()
    )


def _auto_iteration_bound(system, database: Database, predicate: str) -> Tuple[int, Optional[int]]:
    """A termination bound valid for any query constant.

    For equations of the ``p = e0 ∪ e1·p·e2`` form the Marchetti-Spaccamela
    bound with *all* accessible nodes (not just those reachable from the
    query constant) is an upper bound on the number of useful iterations for
    every query, so it is safe to install it unconditionally; no stall
    heuristic is needed (second component ``None``).  A side that is a
    single stored relation is counted from the storage kernel's column code
    sets (:func:`~repro.core.cyclic.accessible_nodes`), so a bound query
    touches no stored row to compute its bound.

    For equations outside that form (mutually recursive non-regular
    predicates) no exact bound is available; we fall back to the coarse
    ``(|active domain| + 2)^2`` product bound scaled by the number of derived
    predicates, combined with the stall heuristic (stop after
    ``|active domain| + 2`` consecutive iterations without a new answer) so
    cyclic data cannot make the evaluation run for the full coarse bound in
    practice.
    """
    try:
        decomposition = decompose_linear(system, predicate)
    except NotApplicableError:
        adom = database.active_domain_size()
        derived = max(1, len(system.derived_predicates))
        return derived * (adom + 2) ** 2, adom + 2
    d1 = accessible_nodes(decomposition.left, database, start=None)
    d2 = accessible_nodes(decomposition.right, database, start=None)
    return max(1, len(d1) * len(d2)), None


def _answer_by_graph(
    program: Program,
    analysis: ProgramAnalysis,
    query: Literal,
    database: Database,
    counters: Counters,
    max_iterations: Optional[int],
) -> QueryAnswer:
    result = transform(program, analysis)
    system = result.system
    bound = max_iterations
    stall = None
    on_limit = "raise"
    if bound is None:
        bound, stall = _auto_iteration_bound(system, database, query.predicate)
        on_limit = "return"
    evaluator = QueryEvaluator(
        system,
        DatabaseProvider(database),
        counters=counters,
        max_iterations=bound,
        on_iteration_limit=on_limit,
        stall_limit=stall,
    )
    answers = evaluator.answer_literal(query)
    return QueryAnswer(
        answers=answers,
        strategy="graph-traversal",
        counters=counters,
        iterations=counters.iterations,
        details={"equation_system": system, "lemma1": result},
    )


def _answer_by_chain_transform(
    program: Program,
    query: Literal,
    database: Database,
    counters: Counters,
    max_iterations: Optional[int],
) -> QueryAnswer:
    transform_result: ChainTransformResult = transform_to_binary_chain(program, query)
    binary_program = transform_result.binary_program
    lemma1_result = transform(binary_program)
    system = lemma1_result.system
    provider = ChainTransformProvider(transform_result, database)

    bound = max_iterations
    stall = None
    on_limit = "raise"
    if bound is None:
        bound = _chain_auto_bound(database)
        # Silent stretches between new answers are bounded by the number of
        # distinct auxiliary-relation tuples, itself bounded by the number of
        # EDB facts for the single-join definitions used here.
        stall = database.total_facts() + 2
        on_limit = "return"
    evaluator = GraphTraversalEvaluator(
        system,
        provider,
        counters=counters,
        max_iterations=bound,
        on_iteration_limit=on_limit,
        stall_limit=stall,
    )
    traversal = evaluator.query_from(
        transform_result.query_predicate, transform_result.query_bound_tuple
    )

    answers = _reassemble_answers(query, transform_result, traversal.answers)
    return QueryAnswer(
        answers=answers,
        strategy="chain-transform",
        counters=counters,
        iterations=traversal.iterations,
        details={
            "adorned_program": transform_result.adorned,
            "binary_program": binary_program,
            "equation_system": system,
            "transform": transform_result,
        },
    )


def _chain_auto_bound(database: Database) -> int:
    """A crude but safe iteration bound for transformed programs.

    Each iteration that adds no new node cannot add answers; the number of
    distinct auxiliary-relation values is bounded by the number of tuples
    over the active domain actually produced by joins of EDB relations, which
    is at most the number of EDB facts raised to the maximal rule length.  In
    practice answers stop growing long before; we use (total facts + 2)^2,
    which covers every workload of the paper (whose recursion depth is linear
    in the data) while still guaranteeing termination on cyclic data.
    """
    return (database.total_facts() + 2) ** 2


def _reassemble_answers(
    query: Literal,
    transform_result: ChainTransformResult,
    free_value_tuples: Set[object],
) -> Set[Tuple[object, ...]]:
    """Project the traversal answers onto the query's distinct variables."""
    free_terms = transform_result.free_terms
    variables = free_variable_order(query)
    answers: Set[Tuple[object, ...]] = set()
    for value in free_value_tuples:
        components = value if isinstance(value, tuple) else (value,)
        if len(components) != len(free_terms):
            continue
        assignment: Dict[Variable, object] = {}
        consistent = True
        for term, component in zip(free_terms, components):
            assert isinstance(term, Variable)
            if term in assignment and assignment[term] != component:
                consistent = False
                break
            assignment[term] = component
        if consistent:
            answers.add(tuple(assignment[v] for v in variables))
    return answers


def _answer_bottom_up(
    program: Program, query: Literal, database: Database, counters: Counters
) -> QueryAnswer:
    """The stratified seminaive runtime, in place on the per-call overlay,
    charged to the caller's counters exactly as the seminaive engine is."""
    from ..engines.runtime import evaluate_stratified

    rounds = counters.iterations
    evaluate_stratified(program, database, counters)
    return QueryAnswer(
        answers=database.answers(query),
        strategy="bottom-up",
        counters=counters,
        iterations=counters.iterations - rounds,
        details={"model_size": database.total_facts()},
    )
