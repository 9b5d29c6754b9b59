"""The automaton hierarchy EM(p, i) of Section 3.

For an equation ``p = e_p`` the automaton ``M(e_p)`` is the standard NFA of
the expression read as a regular expression over predicate symbols
(:func:`repro.relalg.automaton.thompson`, Figure 1 of the paper).

The evaluation of a query for ``p`` is controlled by a hierarchy of automata
``EM(p, i)``:

* ``EM(p, 1)`` is a copy of ``M(e_p)``;
* ``EM(p, i)`` is obtained from ``EM(p, i-1)`` by replacing every transition
  ``q --r--> q'`` on a *derived* predicate ``r`` with a fresh copy of
  ``M(e_r)``: the transition is removed and ``id`` transitions
  ``q --id--> q_s'`` and ``q_f' --id--> q'`` are added, where ``q_s'`` and
  ``q_f'`` are the initial and final states of the copy (Figure 2).

The evaluation algorithm of Figure 4 performs these expansions lazily, one
iteration of the main loop at a time; :class:`EMHierarchy` provides both the
lazy single-transition expansion used by the evaluator and an eager
``build_em(p, i)`` used by tests to reproduce Figures 2 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..relalg.automaton import ID, Automaton, Transition, thompson
from ..relalg.equations import EquationSystem
from ..relalg.expressions import Expression


@dataclass(frozen=True)
class Expansion:
    """The result of expanding one transition on a derived predicate.

    Attributes
    ----------
    removed:
        The transition on the derived predicate that was removed.
    entry:
        The initial state of the spliced copy of ``M(e_r)`` (the state the
        new traversal starts from).
    exit:
        The final state of the spliced copy.
    derived:
        The transitions on derived predicates that the spliced copy added, in
        the template's order and as the objects the automaton stores -- the
        transitions later iterations may expand.
    """

    removed: Transition
    entry: int
    exit: int
    derived: Tuple[Transition, ...]


class EMHierarchy:
    """Builds and expands the automata ``EM(p, i)`` for an equation system."""

    def __init__(self, system: EquationSystem):
        self.system = system
        self.derived_predicates: Set[str] = set(system.derived_predicates)
        self._templates: Dict[str, Automaton] = {}

    # -- the templates M(e_p) ------------------------------------------------

    def expression_for(self, predicate: str) -> Expression:
        """The right-hand side ``e_p`` of the equation for ``predicate``."""
        return self.system.rhs(predicate)

    def m_of(self, predicate: str) -> Automaton:
        """The template automaton ``M(e_p)`` (cached, do not mutate)."""
        template = self._templates.get(predicate)
        if template is None:
            template = thompson(self.system.rhs(predicate))
            self._templates[predicate] = template
        return template

    # -- EM construction ----------------------------------------------------------

    def build_em(self, predicate: str, level: int = 1) -> Automaton:
        """Construct ``EM(predicate, level)`` eagerly.

        ``level`` is the ``i`` of the paper: level 1 is a copy of
        ``M(e_p)``; each further level expands *every* transition on a
        derived predicate present at the previous level.
        """
        if level < 1:
            raise ValueError("level must be at least 1")
        automaton = self.m_of(predicate).copy()
        for _ in range(level - 1):
            expansions = self.expand_all(automaton)
            if not expansions:
                break
        return automaton

    def derived_transitions(self, automaton: Automaton) -> List[Transition]:
        """All transitions of ``automaton`` labelled with a derived predicate."""
        return [t for t in automaton.transitions if t.label in self.derived_predicates]

    def expand_transition(self, automaton: Automaton, transition: Transition) -> Expansion:
        """Expand a single transition on a derived predicate in place.

        Splices a fresh copy of ``M(e_r)`` (``r`` being the transition's
        label) into ``automaton``, wires it up with ``id`` transitions and
        removes the original transition, exactly as the paper's main loop
        does (Figure 4).  The cost is that of copying ``M(e_r)``: it does not
        grow with the transitions spliced into ``automaton`` before.
        """
        derived = self.derived_predicates
        if transition.label not in derived:
            raise ValueError(f"transition {transition} is not on a derived predicate")
        template = self.m_of(transition.label)
        mapping, added = automaton.splice(template)
        entry = mapping[template.initial]
        exit_state = mapping[template.final]
        automaton.add_transition(transition.source, ID, entry)
        automaton.add_transition(exit_state, ID, transition.target)
        automaton.remove_transition(transition)
        return Expansion(
            removed=transition,
            entry=entry,
            exit=exit_state,
            derived=tuple(t for t in added if t.label in derived),
        )

    def expand_all(self, automaton: Automaton) -> List[Expansion]:
        """Expand every transition on a derived predicate currently present."""
        expansions = []
        for transition in list(self.derived_transitions(automaton)):
            expansions.append(self.expand_transition(automaton, transition))
        return expansions

    # -- inspection -------------------------------------------------------------------

    def is_regular(self, predicate: str) -> bool:
        """True when ``e_p`` contains no derived predicates.

        In this case the evaluation needs a single iteration (Theorem 3).
        """
        return not (
            self.system.predicates_in_rhs(predicate) & self.derived_predicates
        )
