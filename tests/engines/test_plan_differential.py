"""Differential tests: compiled plans vs the interpreted reference executor.

Every engine is run on every workload family three times -- with the
columnar batch executor (the default), with every firing forced through the
plan's row executor (the batch kernel's fallback), and with the interpreted
substitution-dictionary executor over the same plans -- and must produce
identical answers *and* identical work counters.  The answers are also
checked against the least-model semantics.

The module also carries the regression tests for the three bug fixes that
landed with the plan compiler: the top-down builtin-deferral divergence, the
live-set aliasing of ``Relation.lookup``, and the silently-dropped deferred
builtins of the historical seminaive delta instantiation.
"""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.errors import EvaluationError
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.semantics import answer_query
from repro.engines import get_engine, run_engine
from repro.instrumentation import Counters
from repro.workloads import (
    binary_tree,
    chain,
    corridor,
    cycle,
    grid,
    hub_and_spoke,
    random_dag,
    random_genealogy,
    random_graph,
    sample_a,
    sample_b,
    sample_c,
)

WORKLOADS = {
    "chain-16": chain(16),
    "cycle-10": cycle(10),
    "tree-3": binary_tree(3),
    "dag-12": random_dag(12),
    "graph-9": random_graph(9, 16),
    "grid-3x3": grid(3, 3),
    "sample-a-8": sample_a(8),
    "sample-b-6": sample_b(6),
    "sample-c-6": sample_c(6),
    "genealogy-12": random_genealogy(12, 3),
    "corridor-5": corridor(5),
    "hub-3x2": hub_and_spoke(3, 2),
}

ALL_ENGINES = [
    "naive",
    "seminaive",
    "topdown",
    "magic",
    "counting",
    "reverse-counting",
    "henschen-naqvi",
    "graph",
]


def _measure(engine, workload, cell, mode):
    program, database, query = workload
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    with cell(mode):
        result = run_engine(engine, program, query, fresh, counters)
    return result.answers, counters.as_dict()


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_columnar_and_interpreted_agree(engine, workload_name, execution_cell):
    workload = WORKLOADS[workload_name]
    program, database, query = workload
    try:
        applicable = get_engine(engine).applicable(program, query)
    except Exception:
        applicable = False
    if not applicable:
        pytest.skip(f"{engine} not applicable to {workload_name}")
    columnar = _measure(engine, workload, execution_cell, "columnar")
    row_fallback = _measure(engine, workload, execution_cell, "row-fallback")
    interpreted = _measure(engine, workload, execution_cell, "interpreted")
    assert columnar == interpreted
    assert row_fallback == interpreted
    assert columnar[0] == answer_query(program, query, database)


class TestTopdownDeferralGuard:
    """Regression: _solve_body rotated non-ground builtins forever."""

    def _program(self):
        rules = [
            Rule(Literal("p", ["X"]), [Literal("num", ["X"]), Literal("<", ["X", "Y"])]),
            Rule(Literal("num", [1])),
        ]
        return Program(rules, validate=False)

    def test_raises_evaluation_error_instead_of_recursing(self):
        program = self._program()
        with pytest.raises(EvaluationError, match="never becomes ground"):
            run_engine("topdown", program, parse_literal("p(X)"))

    def test_ground_builtins_still_deferred_and_applied(self):
        program = parse_program(
            """
            win(X, Y) :- num(X), num(Y), X < Y.
            num(1). num(2). num(3).
            """
        )
        result = run_engine("topdown", program, parse_literal("win(1, Y)"))
        assert result.answers == {(2,), (3,)}


class TestLookupAliasing:
    """Regression: Relation.lookup returned the live row set / index bucket."""

    def test_full_lookup_is_an_immutable_snapshot(self):
        relation = Relation("up", 2)
        relation.add(("a", "b"))
        rows = relation.lookup({})
        assert rows == {("a", "b")}
        with pytest.raises(AttributeError):
            rows.add(("x", "y"))
        relation.add(("a", "c"))
        assert rows == {("a", "b")}  # the snapshot does not track the relation

    def test_indexed_lookup_is_an_immutable_snapshot(self):
        relation = Relation("up", 2)
        relation.add(("a", "b"))
        bucket = relation.lookup({0: "a"})
        with pytest.raises(AttributeError):
            bucket.add(("a", "zzz"))
        # The relation and its index are unharmed and still consistent.
        relation.add(("a", "c"))
        assert relation.lookup({0: "a"}) == {("a", "b"), ("a", "c")}
        assert ("a", "zzz") not in relation

    def test_match_returns_a_fresh_list(self):
        database = Database.from_dict({"up": [("a", "b")]})
        rows = database.match(Literal("up", ["X", "Y"]), charge=False)
        rows.append(("junk", "junk"))
        assert database.rows("up") == {("a", "b")}


class TestSeminaiveDeferralUnified:
    """Regression: the delta path silently dropped never-ground builtins."""

    def _program(self):
        rules = [
            Rule(Literal("tc", ["X", "Y"]), [Literal("e", ["X", "Y"])]),
            Rule(
                Literal("tc", ["X", "Z"]),
                [
                    Literal("e", ["X", "Y"]),
                    Literal("tc", ["Y", "Z"]),
                    Literal("<", ["Z", "W"]),
                ],
            ),
            Rule(Literal("e", [1, 2])),
            Rule(Literal("e", [2, 3])),
        ]
        return Program(rules, validate=False)

    def test_seminaive_raises_instead_of_dropping(self):
        with pytest.raises(EvaluationError, match="never becomes ground"):
            run_engine("seminaive", self._program(), parse_literal("tc(1, Y)"))

    def test_naive_agrees_on_the_error(self):
        with pytest.raises(EvaluationError, match="never becomes ground"):
            run_engine("naive", self._program(), parse_literal("tc(1, Y)"))


class TestCopyOnWriteOverlay:
    """The answer() overlay must not mutate the caller's database."""

    PROGRAM = "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."

    def test_caller_database_untouched(self):
        program = parse_program(self.PROGRAM)
        database = Database.from_dict({"e": [(1, 2), (2, 3)]})
        result = run_engine("seminaive", program, parse_literal("tc(1, Y)"), database)
        assert result.answers == {(2,), (3,)}
        assert database.predicates() == {"e"}
        assert database.rows("e") == {(1, 2), (2, 3)}

    def test_shared_relation_cloned_on_write(self):
        program = parse_program(self.PROGRAM + " e(0, 1).")
        database = Database.from_dict({"e": [(1, 2)]})
        result = run_engine("seminaive", program, parse_literal("tc(0, Y)"), database)
        assert result.answers == {(1,), (2,)}
        # The program's extra e-fact went into a clone, not the caller's copy.
        assert database.rows("e") == {(1, 2)}

    def test_overlay_reuses_base_indexes_until_written(self):
        database = Database.from_dict({"e": [(1, 2), (2, 3)]})
        overlay = Database.overlay(database)
        assert overlay.relations["e"] is database.relations["e"]
        overlay.add_fact("e", (1, 2))  # duplicate: still shared
        assert overlay.relations["e"] is database.relations["e"]
        overlay.add_fact("e", (9, 9))  # first real write: cloned
        assert overlay.relations["e"] is not database.relations["e"]
        assert database.rows("e") == {(1, 2), (2, 3)}
        assert overlay.rows("e") == {(1, 2), (2, 3), (9, 9)}

    def test_repeated_queries_share_base_relations(self):
        program = parse_program(self.PROGRAM)
        database = Database.from_dict({"e": [(i, i + 1) for i in range(30)]})
        baseline = database.relations["e"]
        for start in (0, 5, 10):
            run_engine("seminaive", program, parse_literal(f"tc({start}, Y)"), database)
        assert database.relations["e"] is baseline
        assert database.count("e") == 30
