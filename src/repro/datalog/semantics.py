"""Model-theoretic semantics: the least / perfect model, used as ground truth.

Section 2 of the paper defines truth via derivations: ``p(c)`` is true iff
``{p(c)}`` derives a set of extensional facts.  For a positive Datalog
program this coincides with membership in the least fixpoint of the
immediate-consequence operator, which is what this module computes by plain
(unoptimised) naive iteration.  For programs with stratified negation or
aggregation the ground truth is the *perfect model*: the strata are
evaluated bottom-up, each by naive iteration over relations whose negated
and aggregated inputs are already complete (:func:`stratified_model`).
Every evaluation strategy in :mod:`repro.engines` and the graph-traversal
algorithm of :mod:`repro.core` is tested against these functions; they are
deliberately simple rather than fast -- :func:`stratified_model` in
particular evaluates rule bodies with its own substitution enumeration,
independent of the compiled join plans it referees.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .database import Database, Row, decompose_query, project_answers
from .literals import Literal
from .plans import rule_plan
from .rules import Program, Rule
from .terms import AGGREGATE_FUNCTIONS, AggregateTerm, Constant, Variable
from .unify import match_literal

Substitution = Dict[Variable, object]


def least_model(program: Program, database: Optional[Database] = None) -> Database:
    """Compute the least (or, when stratified, perfect) model of ``program``.

    Parameters
    ----------
    program:
        The Datalog program.  Facts embedded in the program are added to the
        extensional database automatically.  Programs with stratified
        negation or aggregation are routed to :func:`stratified_model`; an
        unstratifiable program raises :class:`~repro.datalog.errors
        .StratificationError`.
    database:
        Extensional facts stored externally (may be ``None``).

    Returns
    -------
    Database
        A database containing *all* facts of the model: the extensional
        relations plus every derived tuple.
    """
    if not program.is_positive:
        return stratified_model(program, database)
    model = Database()
    if database is not None:
        for predicate in database.predicates():
            model.add_facts(predicate, database.rows(predicate))
    model.load_program_facts(program)

    plans = [(rule.head.predicate, rule_plan(rule)) for rule in program.idb_rules()]
    changed = True
    while changed:
        changed = False
        for head_predicate, plan in plans:
            for head_row in plan.heads(model):
                if model.add_fact(head_predicate, head_row):
                    changed = True
    return model


# ---------------------------------------------------------------------------
# The stratified (perfect-model) reference evaluator
# ---------------------------------------------------------------------------

def _reference_substitutions(
    body: Tuple[Literal, ...], database: Database, substitution: Substitution
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying ``body``, plans-free.

    At every step the first *processable* remaining literal is handled: a
    positive literal scans its relation, a built-in or a negated literal is
    applied as soon as it is ground.  Safe rules always leave a processable
    literal, so the recursion cannot stall.
    """
    if not body:
        yield substitution
        return
    for index, literal in enumerate(body):
        if literal.is_builtin or literal.negated:
            required = [
                v
                for v in literal.variables()
                if literal.is_builtin or not v.is_anonymous
            ]
            if not all(v in substitution for v in required):
                continue
            rest = body[:index] + body[index + 1 :]
            if literal.is_builtin:
                grounded = Literal(
                    literal.predicate,
                    [
                        Constant(substitution[t]) if isinstance(t, Variable) else t
                        for t in literal.args
                    ],
                )
                if grounded.evaluate_builtin():
                    yield from _reference_substitutions(rest, database, substitution)
                return
            # Anti-join: fail when any stored row matches the (partially
            # bound) literal.  Anonymous variables left unbound by the
            # positive body are existentially quantified here -- any value
            # matches -- while repeated variables still constrain each other.
            positive = literal.positive()
            exists = any(
                match_literal(positive, row, substitution) is not None
                for row in database.rows(literal.predicate)
            )
            if not exists:
                yield from _reference_substitutions(rest, database, substitution)
            return
        rest = body[:index] + body[index + 1 :]
        for row in database.rows(literal.predicate):
            extended = match_literal(literal, row, substitution)
            if extended is not None:
                yield from _reference_substitutions(rest, database, extended)
        return


def _reference_fold(rule: Rule, database: Database) -> Set[Row]:
    """Evaluate one aggregate rule by explicit grouping and folding."""
    group_vars = [t for t in rule.head.args if isinstance(t, Variable)]
    aggregates = rule.head.aggregate_terms()
    groups: Dict[Tuple[object, ...], List[Set[object]]] = {}
    for substitution in _reference_substitutions(rule.body, database, {}):
        key = tuple(substitution[v] for v in group_vars)
        sets = groups.setdefault(key, [set() for _ in aggregates])
        for position, term in enumerate(aggregates):
            sets[position].add(substitution[term.var])
    rows: Set[Row] = set()
    for key, sets in groups.items():
        folded = [
            AGGREGATE_FUNCTIONS[term.func](values)
            for term, values in zip(aggregates, sets)
        ]
        row: List[object] = []
        group_position = 0
        fold_position = 0
        for term in rule.head.args:
            if isinstance(term, AggregateTerm):
                row.append(folded[fold_position])
                fold_position += 1
            elif isinstance(term, Variable):
                row.append(key[group_position])
                group_position += 1
            else:
                row.append(term.value)  # type: ignore[union-attr]
        rows.add(tuple(row))
    return rows


def stratified_model(
    program: Program, database: Optional[Database] = None
) -> Database:
    """The perfect model of a stratified program, by naive per-stratum iteration.

    The reference evaluator of the stratified runtime: strata come from
    :class:`~repro.datalog.analysis.Stratification` (which rejects negation
    or aggregation through recursion), each stratum's aggregate rules fold
    once (their inputs live in strictly lower strata), and the remaining
    rules iterate naively to their monotone fixpoint.  Rule bodies are
    evaluated by a self-contained substitution enumerator, so this function
    shares no execution machinery with the compiled join plans it referees
    in the differential suites.
    """
    from .analysis import Stratification

    model = Database()
    if database is not None:
        for predicate in database.predicates():
            model.add_facts(predicate, database.rows(predicate))
    model.load_program_facts(program)

    stratification = Stratification.of(program)
    for stratum in stratification.strata:
        rules = stratification.stratum_rules(stratum)
        if not rules:
            continue
        for rule in rules:
            if rule.is_aggregate:
                model.add_facts(rule.head.predicate, _reference_fold(rule, model))
        plain = [rule for rule in rules if not rule.is_aggregate]
        changed = True
        while changed:
            changed = False
            for rule in plain:
                for substitution in _reference_substitutions(rule.body, model, {}):
                    row = tuple(
                        substitution[t] if isinstance(t, Variable) else t.value  # type: ignore[union-attr]
                        for t in rule.head.args
                    )
                    if model.add_fact(rule.head.predicate, row):
                        changed = True
    return model


def derived_relation(
    program: Program, predicate: str, database: Optional[Database] = None
) -> Set[Row]:
    """All tuples of ``predicate`` in the least model."""
    return least_model(program, database).rows(predicate)


def answer_query(
    program: Program, query: Literal, database: Optional[Database] = None
) -> Set[Tuple[object, ...]]:
    """Answer a query literal against the least model.

    The answer is, per the paper, "the set of all instantiations of the
    variables in the query such that the instantiated literal is true".  The
    returned tuples list the values of the query's *distinct variables* in
    order of first occurrence.  For a ground query the result is either the
    empty set (false) or ``{()}`` (true).
    """
    return least_model(program, database).answers(query)


def answer_against_relation(
    rows: Iterable[Row], query: Literal
) -> Set[Tuple[object, ...]]:
    """Project the rows matching ``query`` onto its distinct variables.

    For row collections that are not stored relations (the top-down
    engine's answer table, a list of matched rows) and as the reference the
    tests hold :meth:`Database.answers <repro.datalog.database.Database
    .answers>` to.  Rows of another arity are skipped.  The query is
    decomposed once into constant tests, repeated-variable equality tests
    and a projection (:func:`~repro.datalog.database.decompose_query`)
    instead of running the general :func:`match_literal` unifier per row.
    """
    bindings, equalities, projection = decompose_query(query)
    arity = len(query.args)
    if not bindings and not equalities:
        return {row for row in rows if len(row) == arity}
    matching = [row for row in rows if len(row) == arity]
    return project_answers(matching, bindings, equalities, projection)


def free_variable_order(query: Literal) -> List[Variable]:
    """The distinct variables of a query, in order of first occurrence."""
    variables: List[Variable] = []
    for term in query.args:
        if isinstance(term, Variable) and term not in variables:
            variables.append(term)
    return variables


def is_true(program: Program, atom: Literal, database: Optional[Database] = None) -> bool:
    """Truth of a ground atom in the least model."""
    if not atom.is_ground:
        raise ValueError(f"atom {atom} is not ground")
    return atom.constant_values() in least_model(program, database).rows(atom.predicate)
