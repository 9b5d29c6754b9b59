"""The demand-driven graph-traversal evaluation algorithm (Figures 4 and 5).

Given an equation ``p = e_p`` (produced by Lemma 1) and a query ``p(a, Y)``,
the algorithm generates a sequence of *interpretations* ``G(p, a, i)`` of the
automata ``EM(p, i)``: directed graphs whose nodes are pairs
``(state, constant)`` and whose arcs follow the automaton transitions
interpreted over the database.  The construction is demand-driven -- only the
part of the graph reachable from the start node ``(q_s, a)`` is ever built,
which is exactly the set of potentially relevant facts.

The iteration structure follows the paper's Figure 4 precisely:

* ``G`` holds the nodes constructed so far (arcs are never stored);
* ``C`` collects the *continuation points*: nodes ``(q, u)`` reached during
  the current iteration such that ``q`` has an outgoing transition on a
  derived predicate;
* at the end of an iteration, every such transition is expanded into a fresh
  copy of ``M(e_r)`` and the traversal restarts from the new initial states
  paired with the continuation values (``S``);
* the algorithm stops when an iteration produces no continuation points; the
  answer is the set of values paired with the final state.

On cyclic data the basic algorithm may not terminate (Section 3, Figure 8);
an explicit ``max_iterations`` bound controls what happens then (raise, or
return the partial answer), and :mod:`repro.core.cyclic` computes a bound
that makes the partial answer complete for equations of the linear form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple

from ..datalog.database import Database
from ..datalog.errors import NonTerminationError, NotApplicableError
from ..instrumentation import Counters
from ..relalg.automaton import ID, Automaton, Transition
from ..relalg.equations import EquationSystem
from .automaton import EMHierarchy

Node = Tuple[int, object]


class RelationProvider(Protocol):
    """How the traversal reads tuples of the relations labelling transitions.

    The default implementation reads a :class:`Database`; the Section 4
    transformation supplies a provider that computes the ``base-r`` /
    ``in-r`` / ``out-r`` relations on demand by joining the original base
    relations (so that binding propagation is preserved).
    """

    def successors(self, predicate: str, value: object) -> Iterable[object]:
        """All ``v`` such that ``predicate(value, v)`` holds."""
        ...

    def predecessors(self, predicate: str, value: object) -> Iterable[object]:
        """All ``v`` such that ``predicate(v, value)`` holds."""
        ...

    def domain(self, predicate: str) -> Iterable[object]:
        """The set of first components of ``predicate`` (used by p(X, Y) queries)."""
        ...


class DatabaseProvider:
    """A :class:`RelationProvider` backed by a :class:`Database`.

    Retrievals are charged to the database's counters, which is how the
    "facts consulted" measurements of the benchmarks are taken.  Neighbour
    queries drive :meth:`~repro.datalog.database.Database.image` -- a single
    adjacency-bucket retrieval per value on the interned storage kernel,
    charged exactly as the equivalent indexed ``match`` would charge.
    """

    def __init__(self, database: Database):
        self.database = database

    def successors(self, predicate: str, value: object) -> Iterable[object]:
        return self.database.image(predicate, (value,))

    def predecessors(self, predicate: str, value: object) -> Iterable[object]:
        return self.database.image(predicate, (value,), inverted=True)

    def domain(self, predicate: str) -> Iterable[object]:
        return self.database.column_values(predicate, 0)


@dataclass
class TraversalResult:
    """Outcome of evaluating one query ``p(a, Y)``.

    Attributes
    ----------
    answers:
        The set of values ``u`` such that ``(q_f, u)`` was generated -- i.e.
        the answer to the query.
    iterations:
        Number of iterations of the main loop (the ``h`` of Theorem 4).
    nodes:
        The set of graph nodes generated (the paper stores only nodes, never
        arcs; their number drives the complexity bounds).
    terminated:
        True when the loop stopped because no continuation points remained;
        False when it was cut off by ``max_iterations``.
    counters:
        Work counters accumulated during the evaluation.
    """

    answers: Set[object]
    iterations: int
    nodes: Set[Node]
    terminated: bool
    counters: Counters

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.answers)


class GraphTraversalEvaluator:
    """Evaluate queries ``p(a, Y)`` over an equation system by graph traversal."""

    def __init__(
        self,
        system: EquationSystem,
        provider: RelationProvider,
        counters: Optional[Counters] = None,
        max_iterations: Optional[int] = None,
        on_iteration_limit: str = "raise",
        stall_limit: Optional[int] = None,
    ):
        """
        Parameters
        ----------
        system:
            The equation system (normally the output of Lemma 1).
        provider:
            Source of base-relation tuples (see :class:`RelationProvider`).
        counters:
            Work counters; a fresh object is created when omitted.
        max_iterations:
            Upper bound on main-loop iterations.  ``None`` means unbounded,
            which is safe for acyclic data (Theorem 4) but may loop forever
            on cyclic data.
        on_iteration_limit:
            ``"raise"`` (default) raises
            :class:`~repro.datalog.errors.NonTerminationError` when the bound
            is hit with work remaining; ``"return"`` returns the partial
            answer with ``terminated=False``.  The cyclic-data extension of
            Marchetti-Spaccamela et al. uses the latter with a bound that
            guarantees completeness.
        stall_limit:
            Practical early-stopping heuristic for cyclic data whose exact
            iteration bound is unknown: stop (reporting ``terminated=True``)
            once this many *consecutive* iterations have produced no new
            answer node.  The paper's cyclic example shows the algorithm may
            legitimately run up to ``m`` silent iterations before finding new
            answers, so callers must pick the limit at least as large as the
            number of accessible nodes on one side of the recursion (the
            planner uses active-domain size + 2).  ``None`` (default)
            disables the heuristic.
        """
        self.system = system
        self.provider = provider
        self.counters = counters if counters is not None else Counters()
        self.max_iterations = max_iterations
        if on_iteration_limit not in ("raise", "return"):
            raise ValueError("on_iteration_limit must be 'raise' or 'return'")
        self.on_iteration_limit = on_iteration_limit
        self.stall_limit = stall_limit
        self.hierarchy = EMHierarchy(system)

    # -- the main algorithm (Figure 4) -----------------------------------------

    def query_from(self, predicate: str, bound_value: object) -> TraversalResult:
        """Evaluate ``predicate(bound_value, Y)``.

        Follows the pseudocode of Figure 4: iterate traversal and expansion
        until no continuation points are generated.

        The transitions on derived predicates still waiting in the automaton
        are kept in a pending list instead of being found again by a scan of
        the whole automaton: each iteration keeps the ones it did not expand,
        in their order, followed by those its expansions spliced in, in
        expansion order -- the automaton's own transition order.  An
        iteration therefore costs its traversal, a pass over the pending list
        and one template copy per expansion, not a pass over every transition
        built so far.
        """
        if predicate not in self.system.derived_predicates:
            raise NotApplicableError(
                f"no equation for predicate {predicate!r}; "
                "base predicates can be queried directly from the database"
            )
        automaton = self.hierarchy.m_of(predicate).copy()
        pending = self.hierarchy.derived_transitions(automaton)
        graph: Set[Node] = set()
        # The values of the final-state nodes, collected as the traversal
        # adds them, so neither the stall check nor the result scans the
        # whole graph.
        answers: Set[object] = set()
        start_nodes: Set[Node] = {(automaton.initial, bound_value)}
        iterations = 0
        terminated = True
        answers_seen = 0
        stalled_for = 0

        while True:
            iterations += 1
            self.counters.iterations += 1
            continuation: Set[Node] = set()
            for node in start_nodes:
                if node not in graph:
                    graph.add(node)
                    self.counters.nodes_generated += 1
                    self._traverse(automaton, node, graph, continuation, answers)
            start_nodes = set()
            if not continuation:
                break
            if self.stall_limit is not None:
                if len(answers) == answers_seen:
                    stalled_for += 1
                    if stalled_for >= self.stall_limit:
                        break
                else:
                    answers_seen = len(answers)
                    stalled_for = 0
            # Expand every transition on a derived predicate that has a
            # continuation point waiting at its source state.
            values_by_state: Dict[int, Set[object]] = {}
            for state, value in continuation:
                values_by_state.setdefault(state, set()).add(value)
            survivors: List[Transition] = []
            spliced: List[Transition] = []
            for transition in pending:
                values = values_by_state.get(transition.source)
                if values is None:
                    survivors.append(transition)
                    continue
                expansion = self.hierarchy.expand_transition(automaton, transition)
                spliced.extend(expansion.derived)
                for value in values:
                    start_nodes.add((expansion.entry, value))
            pending = survivors + spliced
            if self.max_iterations is not None and iterations >= self.max_iterations:
                if start_nodes:
                    terminated = False
                break

        if not terminated and self.on_iteration_limit == "raise":
            raise NonTerminationError(
                f"evaluation of {predicate}({bound_value!r}, Y) exceeded "
                f"{self.max_iterations} iterations (cyclic data?)",
                partial_answer=answers,
                iterations=iterations,
            )
        return TraversalResult(
            answers=answers,
            iterations=iterations,
            nodes=graph,
            terminated=terminated,
            counters=self.counters,
        )

    # -- the traversal procedure (Figure 5) -----------------------------------------

    def _traverse(
        self,
        automaton: Automaton,
        start: Node,
        graph: Set[Node],
        continuation: Set[Node],
        answers: Set[object],
    ) -> None:
        """Depth-first construction of the new nodes reachable from ``start``.

        Implemented with an explicit stack so that deep graphs do not hit the
        Python recursion limit; the visit order is immaterial.  Every node
        passes through the stack once, so the value of each one at the
        automaton's final state is added to ``answers`` there.
        """
        stack: List[Node] = [start]
        derived = self.hierarchy.derived_predicates
        final = automaton.final
        while stack:
            state, value = stack.pop()
            if state == final:
                answers.add(value)
            for transition in automaton.outgoing(state):
                label = transition.label
                if label == ID:
                    node = (transition.target, value)
                    if node not in graph:
                        graph.add(node)
                        self.counters.nodes_generated += 1
                        stack.append(node)
                elif label in derived:
                    continuation.add((state, value))
                else:
                    if transition.inverted:
                        neighbours = self.provider.predecessors(label, value)
                    else:
                        neighbours = self.provider.successors(label, value)
                    for neighbour in neighbours:
                        node = (transition.target, neighbour)
                        if node not in graph:
                            graph.add(node)
                            self.counters.nodes_generated += 1
                            stack.append(node)


def evaluate_from_database(
    system: EquationSystem,
    database: Database,
    predicate: str,
    bound_value: object,
    counters: Optional[Counters] = None,
    max_iterations: Optional[int] = None,
    on_iteration_limit: str = "raise",
    stall_limit: Optional[int] = None,
) -> TraversalResult:
    """Convenience wrapper: evaluate ``predicate(bound_value, Y)`` over a Database."""
    if counters is not None:
        database.reset_instrumentation(counters)
    evaluator = GraphTraversalEvaluator(
        system,
        DatabaseProvider(database),
        counters=database.counters if counters is None else counters,
        max_iterations=max_iterations,
        on_iteration_limit=on_iteration_limit,
        stall_limit=stall_limit,
    )
    return evaluator.query_from(predicate, bound_value)
