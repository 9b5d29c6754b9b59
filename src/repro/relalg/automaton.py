"""Nondeterministic finite automata over predicate symbols.

Section 3 of the paper: "We represent this equation as a nondeterministic
finite automaton, denoted by M(e_p).  For an expression e, M(e) is the
automaton obtained by the standard technique from e when we regard e as a
regular expression over the alphabet consisting of all predicate symbols
appearing in e."  The transitions labelled ``id`` are epsilon transitions
interpreted as the identity relation.

This module provides that standard construction (Thompson's construction)
plus the small amount of automaton surgery the evaluation algorithm needs:
fresh-state copying and transition replacement (used by ``EM(p, i)`` in
:mod:`repro.core.automaton`).  The construction intentionally mirrors
Figure 1 of the paper: every operator introduces explicit ``id`` transitions
rather than being optimised away, because the interpretation graph of
Section 3 is defined over exactly these states.

Surgery costs O(1) per transition, whatever the automaton's size: an
automaton registers its transitions in an insertion-ordered dict from
transition to multiplicity, so adding or removing one is a hash update, not
a scan of everything spliced in so far.  Transitions form a multiset -- an
identical transition added twice and removed once leaves one copy -- and
removing an absent transition raises :class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .expressions import (
    Compose,
    Empty,
    Expression,
    Identity,
    Inverse,
    Pred,
    Star,
    Union,
)

#: The label used for epsilon / identity transitions, as in the paper's figures.
ID = "id"


@dataclass(frozen=True)
class Transition:
    """A single transition ``source --label--> target``.

    ``label`` is either :data:`ID` or a predicate name; ``inverted`` marks
    transitions that read the predicate backwards (produced by ``Inverse``
    sub-expressions).
    """

    source: int
    label: str
    target: int
    inverted: bool = False

    def is_identity(self) -> bool:
        return self.label == ID

    def __str__(self) -> str:
        arrow = "<-" if self.inverted else "->"
        return f"q{self.source} -{self.label}{arrow} q{self.target}"


class Automaton:
    """A mutable NFA with integer states.

    States are plain integers handed out by :meth:`new_state`, so copies of
    other automata can be spliced in without clashes (the ``EM(p, i)``
    construction of the paper relies on this).  Transitions live in a
    registry mapping each distinct transition to its multiplicity, kept in
    insertion order, plus a per-state list of outgoing transitions.
    """

    def __init__(self) -> None:
        self._next_state = 0
        self.initial: int = -1
        self.final: int = -1
        self._transitions: Dict[Transition, int] = {}
        self._outgoing: Dict[int, List[Transition]] = {}

    # -- construction ----------------------------------------------------------

    def new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        self._outgoing.setdefault(state, [])
        return state

    def add_transition(
        self, source: int, label: str, target: int, inverted: bool = False
    ) -> Transition:
        transition = Transition(source, label, target, inverted)
        registry = self._transitions
        registry[transition] = registry.get(transition, 0) + 1
        self._outgoing.setdefault(source, []).append(transition)
        self._outgoing.setdefault(target, [])
        return transition

    def remove_transition(self, transition: Transition) -> None:
        """Remove one copy of ``transition`` in O(1).

        Raises :class:`ValueError` when the automaton holds no copy of it.
        """
        registry = self._transitions
        count = registry.get(transition)
        if count is None:
            raise ValueError(f"transition {transition} is not in the automaton")
        if count == 1:
            del registry[transition]
        else:
            registry[transition] = count - 1
        # A state has a handful of outgoing transitions, so this scan is short.
        self._outgoing[transition.source].remove(transition)

    # -- access -------------------------------------------------------------------

    @property
    def transitions(self) -> List[Transition]:
        """Every transition in insertion order, one entry per copy.

        Copies of one transition are listed together, at the position where
        the first of them was added.  A fresh list, built in O(transitions).
        """
        return [
            transition
            for transition, count in self._transitions.items()
            for _ in range(count)
        ]

    @property
    def states(self) -> List[int]:
        return sorted(self._outgoing)

    def outgoing(self, state: int) -> Tuple[Transition, ...]:
        return tuple(self._outgoing.get(state, ()))

    def labels(self) -> Set[str]:
        """All non-identity labels used by the automaton."""
        return {t.label for t in self._transitions if t.label != ID}

    def state_count(self) -> int:
        return len(self._outgoing)

    # -- surgery ----------------------------------------------------------------------

    def splice(self, other: "Automaton") -> Tuple[Dict[int, int], List[Transition]]:
        """Copy every state and transition of ``other`` into this automaton.

        Returns the state-renaming map and the added transitions, in
        ``other``'s order and as the objects this automaton now stores.  The
        initial/final states of *this* automaton are unchanged; the caller
        wires the copy in with explicit ``id`` transitions (exactly as the
        paper describes for EM(p, i)).
        """
        mapping: Dict[int, int] = {}
        for state in other.states:
            mapping[state] = self.new_state()
        added = [
            self.add_transition(
                mapping[transition.source],
                transition.label,
                mapping[transition.target],
                transition.inverted,
            )
            for transition in other.transitions
        ]
        return mapping, added

    def copy(self) -> "Automaton":
        clone = Automaton()
        mapping, _ = clone.splice(self)
        clone.initial = mapping[self.initial]
        clone.final = mapping[self.final]
        return clone

    # -- reporting ----------------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"initial: q{self.initial}", f"final: q{self.final}"]
        for transition in self.transitions:
            lines.append(str(transition))
        return "\n".join(lines)

    def describe(self) -> str:
        """A short single-line summary."""
        return (
            f"Automaton(states={self.state_count()}, transitions={len(self.transitions)}, "
            f"labels={sorted(self.labels())})"
        )


def thompson(expression: Expression) -> Automaton:
    """Build M(e): the Thompson automaton of ``expression``.

    Every predicate occurrence becomes a single transition labelled with the
    predicate name; ``id`` transitions implement sequencing, choice and the
    closure operator, matching Figure 1 of the paper.
    """
    automaton = Automaton()
    initial, final = _build(expression, automaton)
    automaton.initial = initial
    automaton.final = final
    return automaton


def _build(expression: Expression, automaton: Automaton) -> Tuple[int, int]:
    if isinstance(expression, Pred):
        start = automaton.new_state()
        end = automaton.new_state()
        automaton.add_transition(start, expression.name, end)
        return start, end
    if isinstance(expression, Identity):
        start = automaton.new_state()
        end = automaton.new_state()
        automaton.add_transition(start, ID, end)
        return start, end
    if isinstance(expression, Empty):
        # Two states with no connecting transition: nothing is accepted.
        return automaton.new_state(), automaton.new_state()
    if isinstance(expression, Inverse):
        return _build_inverse(expression.inner, automaton)
    if isinstance(expression, Union):
        start = automaton.new_state()
        end = automaton.new_state()
        for item in expression.items:
            item_start, item_end = _build(item, automaton)
            automaton.add_transition(start, ID, item_start)
            automaton.add_transition(item_end, ID, end)
        return start, end
    if isinstance(expression, Compose):
        start: Optional[int] = None
        previous_end: Optional[int] = None
        for item in expression.items:
            item_start, item_end = _build(item, automaton)
            if start is None:
                start = item_start
            else:
                automaton.add_transition(previous_end, ID, item_start)  # type: ignore[arg-type]
            previous_end = item_end
        assert start is not None and previous_end is not None
        return start, previous_end
    if isinstance(expression, Star):
        inner_start, inner_end = _build(expression.inner, automaton)
        start = automaton.new_state()
        end = automaton.new_state()
        automaton.add_transition(start, ID, inner_start)
        automaton.add_transition(inner_end, ID, end)
        automaton.add_transition(start, ID, end)          # zero iterations
        automaton.add_transition(inner_end, ID, inner_start)  # repeat
        return start, end
    raise TypeError(f"unknown expression node {expression!r}")


def _build_inverse(expression: Expression, automaton: Automaton) -> Tuple[int, int]:
    """Build the automaton of ``expression`` read backwards.

    Inversion distributes over the operators: (e1·e2)⁻¹ = e2⁻¹·e1⁻¹,
    (e1 ∪ e2)⁻¹ = e1⁻¹ ∪ e2⁻¹, (e*)⁻¹ = (e⁻¹)*, and a base predicate becomes
    a single inverted transition.
    """
    if isinstance(expression, Pred):
        start = automaton.new_state()
        end = automaton.new_state()
        automaton.add_transition(start, expression.name, end, inverted=True)
        return start, end
    if isinstance(expression, (Identity, Empty)):
        return _build(expression, automaton)
    if isinstance(expression, Inverse):
        return _build(expression.inner, automaton)
    if isinstance(expression, Union):
        return _build(Union([Inverse(item) for item in expression.items]), automaton)
    if isinstance(expression, Compose):
        reversed_items = [Inverse(item) for item in reversed(expression.items)]
        return _build(Compose(reversed_items), automaton)
    if isinstance(expression, Star):
        return _build(Star(Inverse(expression.inner)), automaton)
    raise TypeError(f"unknown expression node {expression!r}")


def simulate(automaton: Automaton, word: Iterable[str]) -> bool:
    """Language-level simulation: does the automaton accept ``word``?

    ``word`` is a sequence of predicate names.  This ignores the relational
    interpretation entirely and is used in tests to check that M(e) has the
    same language as the regular expression ``e`` (Lemma 2's premise).
    Inverted transitions consume the label ``name^-1``.
    """
    current: Set[int] = _epsilon_closure(automaton, {automaton.initial})
    for symbol in word:
        next_states: Set[int] = set()
        for state in current:
            for transition in automaton.outgoing(state):
                if transition.label == ID:
                    continue
                effective = (
                    f"{transition.label}^-1" if transition.inverted else transition.label
                )
                if effective == symbol:
                    next_states.add(transition.target)
        current = _epsilon_closure(automaton, next_states)
        if not current:
            return False
    return automaton.final in current


def _epsilon_closure(automaton: Automaton, states: Set[int]) -> Set[int]:
    closure = set(states)
    frontier = list(states)
    while frontier:
        state = frontier.pop()
        for transition in automaton.outgoing(state):
            if transition.label == ID and transition.target not in closure:
                closure.add(transition.target)
                frontier.append(transition.target)
    return closure
