"""Substitutions, matching, and body satisfaction over a database.

The bottom-up engines repeatedly need the set of instantiations ``sigma`` of
a rule's variables such that every body literal, instantiated by ``sigma``,
is a fact of the (extensional or derived) database.  Historically this module
interpreted the body per tuple with a recursive nested-loop join; the public
entry point :func:`satisfy_body` is now a thin wrapper over the compiled
join plans of :mod:`repro.datalog.plans`, which analyse each body once --
literal reordering, built-in placement, positional binding slots -- and are
shared (and cached) across every engine.  Built-in
comparisons that can never become ground are rejected at plan-compilation
time with :class:`~repro.datalog.errors.EvaluationError` rather than cycling
forever through a deferral queue.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from .database import Database, Row
from .literals import Literal
from .plans import body_plan
from .rules import Rule
from .terms import AggregateTerm, Constant, Term, Variable

Substitution = Dict[Variable, object]


def apply_to_term(term: Term, substitution: Substitution) -> Term:
    """Apply a substitution to a single term."""
    if isinstance(term, Variable) and term in substitution:
        return Constant(substitution[term])
    return term


def apply_to_literal(literal: Literal, substitution: Substitution) -> Literal:
    """Apply a substitution to every argument of a literal."""
    return Literal(
        literal.predicate,
        [apply_to_term(t, substitution) for t in literal.args],
        negated=literal.negated,
    )


def apply_to_rule(rule: Rule, substitution: Substitution) -> Rule:
    """Apply a substitution to the head and every body literal of a rule."""
    return Rule(
        apply_to_literal(rule.head, substitution),
        [apply_to_literal(lit, substitution) for lit in rule.body],
    )


def match_literal(
    literal: Literal, row: Row, substitution: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Extend ``substitution`` so that ``literal`` matches the ground ``row``.

    Returns the extended substitution, or ``None`` when the row is
    incompatible with the literal's constants or with bindings already in
    the substitution.  The input substitution is never mutated.
    """
    if len(row) != literal.arity:
        return None
    result: Substitution = dict(substitution) if substitution else {}
    for term, value in zip(literal.args, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            assert isinstance(term, Variable)
            bound = result.get(term, _UNBOUND)
            if bound is _UNBOUND:
                result[term] = value
            elif bound != value:
                return None
    return result


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def satisfy_body(
    body: Sequence[Literal],
    database: Database,
    initial: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions making every body literal true.

    Parameters
    ----------
    body:
        The body literals, processed left to right.  Built-in comparisons are
        postponed until their arguments are bound and then applied as
        filters.
    database:
        The source of facts every body literal is matched against.
    initial:
        Bindings already fixed (e.g. from the rule head during top-down
        evaluation).
    """
    plan = body_plan(
        tuple(body), bound_vars=frozenset(initial) if initial else frozenset()
    )
    return plan.substitutions(database, initial=initial)


def rename_apart(rule: Rule, suffix: str) -> Rule:
    """Rename every variable in ``rule`` by appending ``suffix``.

    Used when the same rule is spliced into a derivation more than once and
    variable capture must be avoided.
    """
    mapping: Dict[Variable, object] = {}
    renamed_args = {}
    for var in rule.variables():
        renamed_args[var] = Variable(var.name + suffix)

    def rename_term(term: Term) -> Term:
        if isinstance(term, Variable):
            return renamed_args.get(term, term)
        if isinstance(term, AggregateTerm):
            return AggregateTerm(term.func, renamed_args.get(term.var, term.var))
        return term

    def rename_literal(literal: Literal) -> Literal:
        return Literal(
            literal.predicate,
            [rename_term(t) for t in literal.args],
            negated=literal.negated,
        )

    return Rule(rename_literal(rule.head), [rename_literal(lit) for lit in rule.body])
