"""Machine-independent cost guards for the graph-traversal engine.

The paper charges the algorithm for nodes and retrievals only; these tests
check that the bookkeeping around the traversal stays out of the way:

* expanding ``EM(p, i)`` costs O(1) transition comparisons, however many
  transitions earlier expansions spliced in;
* the automatic cyclic-data bound counts the accessible nodes of a stored
  relation from the storage kernel, without rebuilding the relation in
  relational algebra on every query;
* the stall heuristic counts the answer nodes as they are added, without
  a pass over the whole node graph on every iteration.
"""

import pytest

from repro.core import automaton as em
from repro.core import cyclic, traversal
from repro.core.planner import evaluate_query
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.relalg.automaton import Transition
from repro.relalg.relation import BinaryRelation
from repro.session import QuerySession
from repro.workloads import random_genealogy, sample_a, sample_c, sample_cyclic


@pytest.mark.parametrize("n", [100, 400])
def test_expansion_compares_a_constant_number_of_transitions(n, monkeypatch):
    comparisons = 0
    expansions = 0
    compare = Transition.__eq__
    expand = em.EMHierarchy.expand_transition

    def counting_eq(self, other):
        nonlocal comparisons
        comparisons += 1
        return compare(self, other)

    def counting_expand(self, automaton, transition):
        nonlocal expansions
        expansions += 1
        return expand(self, automaton, transition)

    program, database, query = sample_c(n)
    monkeypatch.setattr(Transition, "__eq__", counting_eq)
    monkeypatch.setattr(em.EMHierarchy, "expand_transition", counting_expand)
    result = run_engine("graph", program, query, database=database)
    monkeypatch.undo()

    assert result.answers == {("b1",)}
    assert result.iterations == n
    assert expansions == n - 1
    assert comparisons <= 8 * expansions


class _RowsForbidden(BinaryRelation):
    @classmethod
    def from_rows(cls, rows):
        raise AssertionError("the query rebuilt a stored relation to bound it")


@pytest.mark.parametrize(
    "workload", [sample_a(50), sample_cyclic(3, 4)], ids=["fig7a-50", "fig8-3x4"]
)
def test_graph_bound_reads_no_stored_rows(workload, monkeypatch):
    program, database, query = workload
    expected = answer_query(program, query, database)
    monkeypatch.setattr(cyclic, "BinaryRelation", _RowsForbidden)
    result = run_engine("graph", program, query, database=database)
    assert result.answers == expected


def test_session_demand_query_reads_no_stored_rows(monkeypatch):
    program, database, query = random_genealogy(120, 5)
    expected = answer_query(program, query, database)
    session = QuerySession(program, database)
    assert session.strategy_for(query) == "graph"
    monkeypatch.setattr(cyclic, "BinaryRelation", _RowsForbidden)
    assert session.query(query).answers == expected


# Outside the linear form of Marchetti-Spaccamela et al. (two recursive
# terms), so the planner bounds the traversal with the stall heuristic.
TWO_RECURSIVE_TERMS = """
    p(X, Y) :- a(X, Y).
    p(X, Y) :- b(X, Z), p(Z, W), c(W, Y).
    p(X, Y) :- d(X, Z), p(Z, W), e(W, Y).
    a(x0, y0).
    b(x0, x1). b(x1, x0).
    c(y0, y1). c(y1, y2). c(y2, y0).
    d(x0, x1). e(y2, w0). e(w0, w1).
"""


def test_stall_check_does_not_rescan_the_graph(monkeypatch):
    iterated = 0

    class CountingSet(set):
        def __iter__(self):
            nonlocal iterated
            iterated += len(self)
            return super().__iter__()

    program = parse_program(TWO_RECURSIVE_TERMS)
    query = parse_literal("p(x0, Y)")
    monkeypatch.setattr(traversal, "set", CountingSet, raising=False)
    answer = evaluate_query(program, query)
    monkeypatch.undo()

    assert answer.strategy == "graph-traversal"
    assert answer.answers == answer_query(program, query)
    assert answer.iterations == 16
    # The traversal's own sets (graph, continuation points, start nodes)
    # are walked a constant number of times per generated node, however
    # many iterations the stall heuristic runs.
    assert iterated <= 2 * answer.counters.nodes_generated
