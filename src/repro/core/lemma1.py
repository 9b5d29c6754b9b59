"""Lemma 1: transforming a linear binary-chain program into an equation system.

The paper's Lemma 1 gives a nine-step rewriting algorithm that turns any
linear binary-chain program into a system of equations ``p = e_p`` over the
operators ∪, · and * such that

1. there is exactly one equation per derived predicate;
2. the arguments of ``e_p`` are predicate symbols of the program;
3. ``e_p`` contains no occurrences of *regular* derived predicates;
4. if ``p`` is regular, ``e_p`` contains no argument mutually recursive to ``p``;
5. if the program is regular, every right-hand side contains only base
   predicates;
6. if each nonregular predicate has at most one recursive rule, every
   right-hand side contains at most one occurrence of a predicate mutually
   recursive to its left-hand side;
7. the system has a unique smallest solution equal to the program's
   semantics.

The transformation is the classic "regular grammar to regular expression"
state elimination, carried out per strongly connected component of the
dependency graph.  This module implements the nine steps literally, keeping
the step structure visible so that the worked example of Section 3 can be
followed in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..datalog.analysis import ProgramAnalysis, analyze, strongly_connected_components
from ..datalog.errors import NotApplicableError
from ..datalog.rules import Program
from ..relalg.equations import EquationSystem
from ..relalg.expressions import (
    Empty,
    Expression,
    Pred,
    composition_factors,
    compose,
    distribute,
    simplify,
    star,
    union,
    union_terms,
)


@dataclass
class Lemma1Result:
    """The outcome of the Lemma 1 transformation.

    Attributes
    ----------
    system:
        The final equation system.
    initial_system:
        The step 1 system (useful for inspection and for the reference
        fixpoint solver).
    original_mutual_sets:
        predicate -> the set of predicates mutually recursive to it in the
        *original* program (step 2).  Statements (3)-(6) of the lemma are
        phrased with respect to these sets.
    iterations:
        Number of iterations of the step 3-8 loop that were executed.
    """

    system: EquationSystem
    initial_system: EquationSystem
    original_mutual_sets: Dict[str, FrozenSet[str]]
    iterations: int = 0

    def equation(self, predicate: str) -> Expression:
        """Final right-hand side for ``predicate``."""
        return self.system.rhs(predicate)

    def is_regular_equation(self, predicate: str) -> bool:
        """True when the final RHS for ``predicate`` contains no derived predicate."""
        return not (
            self.system.predicates_in_rhs(predicate) & self.system.derived_predicates
        )

    def derived_predicates_in(self, predicate: str) -> Set[str]:
        """Derived predicates occurring in the final RHS for ``predicate``."""
        return self.system.predicates_in_rhs(predicate) & self.system.derived_predicates


# ---------------------------------------------------------------------------
# The nine steps
# ---------------------------------------------------------------------------

def transform(program: Program, analysis: Optional[ProgramAnalysis] = None) -> Lemma1Result:
    """Run the Lemma 1 transformation on a linear binary-chain program.

    The result is memoized on ``analysis`` (by default the program's own
    memoized :class:`ProgramAnalysis`), in the manner of
    :meth:`~repro.datalog.analysis.Stratification.of`: the rewriting runs
    once per program instance, and every later call -- the graph planner and
    the counting, reverse-counting and Henschen-Naqvi engines ask on every
    query -- returns the same :class:`Lemma1Result`.  That result is shared,
    so callers must not mutate it or its equation systems.  The binary-chain
    and linearity checks run, and raise, on every call.

    Raises
    ------
    NotApplicableError
        When the program is not a linear binary-chain program.
    """
    analysis = analysis or analyze(program)
    if not analysis.is_binary_chain_program():
        raise NotApplicableError("Lemma 1 applies to binary-chain programs only")
    if not analysis.is_linear_program():
        raise NotApplicableError("Lemma 1 applies to linear programs only")
    cached = analysis.__dict__.get("_lemma1_memo")
    if cached is not None:
        return cached

    # Step 1: the initial equation system.
    initial = EquationSystem.from_program(program, analysis)

    # Step 2: mutual-recursion structure of the *initial* system.
    original_mutual = _mutual_sets(initial)

    system = initial.copy()
    iterations = 0
    max_iterations = 10 * (len(system) + 1)
    while True:
        iterations += 1
        before = dict(system.equations)

        system = _step3_group_direct_recursion(system)
        system = _step4_eliminate_direct_recursion(system)
        system = _step5_substitute_resolved(system, original_mutual)
        current_mutual = _mutual_sets(system)          # step 6
        system = _step7_eliminate_within_components(system, current_mutual)
        system = _step8_distribute(system, _mutual_sets(system))

        if dict(system.equations) == before:
            break
        if iterations >= max_iterations:
            raise RuntimeError(
                "Lemma 1 rewriting did not stabilise; this indicates a bug, "
                "please report the offending program"
            )

    result = Lemma1Result(
        system=system,
        initial_system=initial,
        original_mutual_sets=original_mutual,
        iterations=iterations,
    )
    analysis._lemma1_memo = result
    return result


def _mutual_sets(system: EquationSystem) -> Dict[str, FrozenSet[str]]:
    """Maximal sets of mutually recursive predicates of an equation system.

    The graph has an arc from p to q when q occurs in e_p (step 2 / step 6 of
    the lemma).  A predicate belongs to its component only when the component
    is non-trivial (it lies on a cycle); otherwise its set is empty.
    """
    graph: Dict[str, Set[str]] = {}
    for predicate in system.derived_predicates:
        graph[predicate] = system.predicates_in_rhs(predicate) & system.derived_predicates
    components = strongly_connected_components(graph)
    result: Dict[str, FrozenSet[str]] = {}
    for component in components:
        members = frozenset(component)
        nontrivial = len(component) > 1 or (
            len(component) == 1 and component[0] in graph.get(component[0], set())
        )
        for predicate in component:
            result[predicate] = members if nontrivial else frozenset()
    for predicate in system.derived_predicates:
        result.setdefault(predicate, frozenset())
    return result


def _split_terms(
    predicate: str, expression: Expression
) -> Tuple[List[Expression], List[Expression], List[Expression], List[Expression]]:
    """Partition the union terms of ``expression`` by how they use ``predicate``.

    Returns ``(free, left, right, other)`` where

    * ``free``  -- terms not containing ``predicate``;
    * ``left``  -- terms of the form ``predicate . rest`` (direct left recursion);
      the stored expression is ``rest``;
    * ``right`` -- terms of the form ``rest . predicate`` (direct right recursion);
      the stored expression is ``rest``;
    * ``other`` -- remaining terms containing ``predicate`` (e.g. in the middle).
    """
    free: List[Expression] = []
    left: List[Expression] = []
    right: List[Expression] = []
    other: List[Expression] = []
    for term in union_terms(expression):
        count = term.occurrence_count({predicate})
        if count == 0:
            free.append(term)
            continue
        factors = composition_factors(term)
        if count == 1 and factors[0] == Pred(predicate) and len(factors) >= 2:
            left.append(simplify(compose(*factors[1:])))
        elif count == 1 and factors[-1] == Pred(predicate) and len(factors) >= 2:
            right.append(simplify(compose(*factors[:-1])))
        elif count == 1 and len(factors) == 1:
            # The degenerate term  p = ... U p  contributes nothing new.
            continue
        else:
            other.append(term)
    return free, left, right, other


def _step3_group_direct_recursion(system: EquationSystem) -> EquationSystem:
    """Step 3: group direct left/right recursion into a single term.

    ``p = e0 ∪ p·e1 ∪ ... ∪ p·ek`` becomes ``p = e0 ∪ p·(e1 ∪ ... ∪ ek)``
    (and symmetrically on the right).  With the n-ary union representation
    this is bookkeeping only; the real work happens in step 4, which consumes
    the grouped form directly.  The step is kept as a separate function so
    the pipeline mirrors the paper, but it only normalises the equations.
    """
    updated = system
    for predicate in system.derived_predicates:
        updated = updated.with_equation(predicate, simplify(system.rhs(predicate)))
    return updated


def _step4_eliminate_direct_recursion(system: EquationSystem) -> EquationSystem:
    """Step 4: eliminate direct left and right recursion with ``*``.

    ``p = e0 ∪ p·e1``  becomes ``p = e0 · e1*``;
    ``p = e0 ∪ e1·p``  becomes ``p = e1* · e0``.

    Degenerate cases (the paper's parenthetical remark): ``p = p·e1`` becomes
    ``p = ∅`` and ``p = e0 ∪ p`` becomes ``p = e0``.  Equations with
    occurrences of ``p`` in the middle of a term, or with recursion on both
    sides at once, are left untouched (they are handled either by later
    iterations or by the iterated automata EM(p, i) at evaluation time).
    """
    updated = system
    for predicate in system.derived_predicates:
        expression = simplify(system.rhs(predicate))
        free, left, right, other = _split_terms(predicate, expression)
        if other:
            continue
        if not left and not right:
            # No direct recursion; but the degenerate `p = ... U p` case may
            # have dropped a term, so re-store the simplified split.
            if union_terms(expression) != free:
                updated = updated.with_equation(predicate, simplify(union(*free)))
            continue
        if left and right:
            # Two-sided direct recursion has no single-star form; leave it.
            continue
        base = simplify(union(*free))
        if isinstance(base, Empty):
            updated = updated.with_equation(predicate, Empty())
            continue
        if left:
            repeated = simplify(union(*left))
            new_expression = simplify(compose(base, star(repeated)))
        else:
            repeated = simplify(union(*right))
            new_expression = simplify(compose(star(repeated), base))
        updated = updated.with_equation(predicate, new_expression)
    return updated


def _step5_substitute_resolved(
    system: EquationSystem, original_mutual: Dict[str, FrozenSet[str]]
) -> EquationSystem:
    """Step 5: substitute equations that no longer mention their original group.

    Whenever the equation for ``p`` is ``p = e`` and ``e`` contains no
    predicate that was mutually recursive to ``p`` in the *initial* system,
    substitute ``e`` for every occurrence of ``p`` in the right-hand sides of
    all the other equations.
    """
    updated = system
    for predicate in sorted(system.derived_predicates):
        expression = updated.rhs(predicate)
        if expression.predicates() & original_mutual.get(predicate, frozenset()):
            continue
        updated = updated.substitute_everywhere(predicate, expression)
    return updated


def _step7_eliminate_within_components(
    system: EquationSystem, mutual: Dict[str, FrozenSet[str]]
) -> EquationSystem:
    """Step 7: within each recursive component, eliminate one resolvable predicate.

    For every maximal set Q of mutually recursive predicates containing at
    least one predicate ``p`` whose own equation does not mention ``p``,
    select one such ``p`` (heuristic: fewest occurrences of derived
    predicates, as the paper suggests) and substitute its right-hand side for
    ``p`` in the equations of the other members of Q.
    """
    updated = system
    components = {members for members in mutual.values() if members}
    for members in components:
        candidates = [
            p for p in sorted(members) if not updated.rhs(p).contains(p)
        ]
        if not candidates:
            continue
        chosen = min(candidates, key=lambda p: (updated.derived_occurrences(p), p))
        expression = updated.rhs(chosen)
        updated = updated.substitute_everywhere(
            chosen, expression, skip=set(updated.derived_predicates) - set(members)
        )
    return updated


def _step8_distribute(
    system: EquationSystem, mutual: Dict[str, FrozenSet[str]]
) -> EquationSystem:
    """Step 8: distribute composition over unions that hide recursion.

    Rewrites ``e · (e1 ∪ ... ∪ en)`` (and the symmetric form) into a union of
    compositions in equations whose left-hand side is mutually recursive to a
    predicate occurring inside the union, so that direct left/right recursion
    becomes visible to steps 3-4 in the next iteration.
    """
    updated = system
    for predicate in system.derived_predicates:
        group = mutual.get(predicate, frozenset())
        targets = set(group) | {predicate}
        expression = updated.rhs(predicate)
        distributed = distribute(expression, targets)
        if distributed != expression:
            updated = updated.with_equation(predicate, distributed)
    return updated


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------

def equation_for(
    program: Program, predicate: str, analysis: Optional[ProgramAnalysis] = None
) -> Expression:
    """The final Lemma 1 equation for a single predicate."""
    result = transform(program, analysis)
    return result.equation(predicate)
