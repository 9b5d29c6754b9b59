"""Termination on cyclic data: the iteration bound of Marchetti-Spaccamela et al.

Section 3 (Figure 8) shows that on cyclic data the basic algorithm need not
terminate: for the same-generation problem with an ``up`` cycle of length
``m`` and a ``down`` cycle of length ``n`` (``m``, ``n`` coprime), the tuple
``(a1, b1)`` only appears after ``m·n`` iterations, and the algorithm keeps
iterating forever because the continuation set never empties.

The paper points out that the counting-method extension of
Marchetti-Spaccamela et al. [14] applies to its algorithm as well whenever
the equation for the recursive predicate has the linear form

    p = e0 ∪ e1 · p · e2 .

The extension maintains the sets ``D1`` and ``D2`` of nodes of ``e1`` and
``e2`` accessible with respect to the query and stops after ``|D1| · |D2|``
iterations, by which time every answer has been produced.  This module
implements that wrapper on top of the traversal evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..datalog.database import Database
from ..datalog.errors import NotApplicableError
from ..instrumentation import Counters
from ..relalg.equations import EquationSystem
from ..relalg.expressions import (
    Expression,
    Pred,
    composition_factors,
    compose,
    simplify,
    union,
    union_terms,
)
from ..relalg.relation import BinaryRelation
from .traversal import DatabaseProvider, GraphTraversalEvaluator, RelationProvider, TraversalResult


@dataclass(frozen=True)
class LinearDecomposition:
    """The pieces of an equation of the form ``p = e0 ∪ e1 · p · e2``.

    Either side expression may be missing: ``e1`` absent means the recursion
    is purely right-linear (``p = e0 ∪ p·e2`` after grouping), ``e2`` absent
    means purely left-linear.  ``e0`` collects the non-recursive branches.
    """

    predicate: str
    base: Expression                    # e0
    left: Optional[Expression]          # e1 (may be None)
    right: Optional[Expression]         # e2 (may be None)


def decompose_linear(system: EquationSystem, predicate: str) -> LinearDecomposition:
    """Split ``e_p`` into the ``e0 ∪ e1·p·e2`` form.

    Raises
    ------
    NotApplicableError
        When the equation is not of the linear form (more than one occurrence
        of a derived predicate, or occurrences of other derived predicates).
    """
    expression = simplify(system.rhs(predicate))
    derived = system.derived_predicates
    other_derived = (expression.predicates() & derived) - {predicate}
    if other_derived:
        raise NotApplicableError(
            f"equation for {predicate!r} mentions other derived predicates "
            f"{sorted(other_derived)}; the cyclic bound needs the p = e0 U e1.p.e2 form"
        )
    base_terms: List[Expression] = []
    lefts: List[Expression] = []
    rights: List[Expression] = []
    recursive_seen = False
    for term in union_terms(expression):
        occurrences = term.occurrence_count({predicate})
        if occurrences == 0:
            base_terms.append(term)
            continue
        if occurrences > 1 or recursive_seen:
            raise NotApplicableError(
                f"equation for {predicate!r} is not of the form p = e0 U e1.p.e2"
            )
        recursive_seen = True
        factors = composition_factors(term)
        positions = [i for i, f in enumerate(factors) if f == Pred(predicate)]
        if len(positions) != 1:
            raise NotApplicableError(
                f"equation for {predicate!r} is not of the form p = e0 U e1.p.e2"
            )
        position = positions[0]
        before = factors[:position]
        after = factors[position + 1 :]
        if before:
            lefts.append(simplify(compose(*before)))
        if after:
            rights.append(simplify(compose(*after)))
    return LinearDecomposition(
        predicate=predicate,
        base=simplify(union(*base_terms)),
        left=lefts[0] if lefts else None,
        right=rights[0] if rights else None,
    )


def accessible_nodes(
    expression: Optional[Expression],
    database: Database,
    start: Optional[object] = None,
) -> Set[object]:
    """The set of nodes of ``expression`` accessible with respect to the query.

    For the left context ``e1`` the accessible nodes are the values reachable
    from the query constant (including it); for the right context ``e2`` the
    query constant gives no restriction, so all nodes of the relation count.
    ``None`` expressions contribute a single virtual node (the identity), so
    the product bound degenerates gracefully, and so does a relation with no
    nodes.

    A single stored relation with ``start=None`` -- the common case, and what
    the planner's query-independent bound asks for -- is answered from the
    storage kernel's column code sets, which inserts keep up to date: the
    cost is the number of distinct values, with no row touched.  Composite
    sides, and reachability from ``start``, evaluate the expression in
    relational algebra over the stored rows.

    Raises
    ------
    ValueError
        When a relation the expression reads has tuples that are not binary.
    """
    if expression is None:
        return {None}
    if start is None and isinstance(expression, Pred):
        return _relation_nodes(database, expression.name)
    env: Dict[str, BinaryRelation] = {}
    for name in expression.predicates():
        rows = database.rows(name)
        env[name] = BinaryRelation.from_rows(rows) if rows else BinaryRelation.empty()
    relation = expression.evaluate(env)
    if start is None:
        return relation.active_domain() or {None}
    reachable = relation.reachable_from(start)
    reachable.add(start)
    return reachable


def _relation_nodes(database: Database, name: str) -> Set[object]:
    """domain ∪ range of one stored binary relation, ``{None}`` when it is empty."""
    relation = database.relations.get(name)
    if relation is None or not len(relation):
        return {None}
    if relation.arity != 2:
        raise ValueError(
            f"expected a binary relation, {name!r} has arity {relation.arity}"
        )
    table = relation.table
    return table.interner.extern_set(table.column_codes(0) | table.column_codes(1))


def iteration_bound(
    system: EquationSystem,
    database: Database,
    predicate: str,
    bound_value: object,
) -> int:
    """The Marchetti-Spaccamela bound |D1| · |D2| for the query p(a, Y)."""
    decomposition = decompose_linear(system, predicate)
    d1 = accessible_nodes(decomposition.left, database, start=bound_value)
    d2 = accessible_nodes(decomposition.right, database, start=None)
    return max(1, len(d1) * len(d2))


def query_with_cycle_bound(
    system: EquationSystem,
    database: Database,
    predicate: str,
    bound_value: object,
    counters: Optional[Counters] = None,
    provider: Optional[RelationProvider] = None,
) -> TraversalResult:
    """Evaluate ``predicate(bound_value, Y)``; terminates even on cyclic data.

    Runs the standard traversal but stops after the |D1|·|D2| bound; by the
    argument of [14] the accumulated answer is then complete, so the result
    is reported as terminated.
    """
    bound = iteration_bound(system, database, predicate, bound_value)
    counters = counters if counters is not None else Counters()
    database.reset_instrumentation(counters)
    evaluator = GraphTraversalEvaluator(
        system,
        provider if provider is not None else DatabaseProvider(database),
        counters=counters,
        max_iterations=bound,
        on_iteration_limit="return",
    )
    result = evaluator.query_from(predicate, bound_value)
    counters.bump("iteration_bound", bound)
    return TraversalResult(
        answers=result.answers,
        iterations=result.iterations,
        nodes=result.nodes,
        terminated=True,
        counters=result.counters,
    )
