"""Unit tests for repro.datalog.database."""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_against_relation, answer_query
from repro.instrumentation import Counters
from repro.session import QuerySession
from repro.storage.table import IntTable
from repro.workloads import binary_tree


class TestRelation:
    def test_add_and_len(self):
        rel = Relation("up", 2)
        assert rel.add(("a", "b"))
        assert not rel.add(("a", "b"))
        assert len(rel) == 1

    def test_arity_mismatch_rejected(self):
        rel = Relation("up", 2)
        with pytest.raises(ValueError):
            rel.add(("a",))

    def test_lookup_by_position(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        rel.add(("b", "c"))
        assert rel.lookup({0: "a"}) == {("a", "b"), ("a", "c")}
        assert rel.lookup({1: "c"}) == {("a", "c"), ("b", "c")}
        assert rel.lookup({0: "a", 1: "c"}) == {("a", "c")}
        assert rel.lookup({}) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_index_maintained_after_insertion(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        assert rel.lookup({0: "a"}) == {("a", "b")}
        rel.add(("a", "c"))  # index already exists and must be updated
        assert rel.lookup({0: "a"}) == {("a", "b"), ("a", "c")}

    def test_contains(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        assert ("a", "b") in rel
        assert ("b", "a") not in rel


class TestDatabase:
    def test_add_fact_and_rows(self):
        db = Database()
        assert db.add_fact("up", ("a", "b"))
        assert not db.add_fact("up", ("a", "b"))
        assert db.rows("up") == {("a", "b")}
        assert db.rows("nosuch") == set()

    def test_add_facts_counts_new_only(self):
        db = Database()
        assert db.add_facts("up", [("a", "b"), ("a", "b"), ("b", "c")]) == 2

    def test_from_dict(self):
        db = Database.from_dict({"up": [("a", "b")], "flat": [("b", "b")]})
        assert db.count("up") == 1
        assert db.predicates() == {"up", "flat"}
        assert db.total_facts() == 2

    def test_from_program(self):
        program = parse_program("p(X,Y) :- e(X,Y). e(1,2). e(2,3).")
        db = Database.from_program(program)
        assert db.rows("e") == {(1, 2), (2, 3)}

    def test_match_with_bound_first_argument(self):
        db = Database.from_dict({"up": [("a", "b"), ("a", "c"), ("b", "d")]})
        rows = db.match(Literal("up", ["a", "Y"]))
        assert set(rows) == {("a", "b"), ("a", "c")}

    def test_match_repeated_variable(self):
        db = Database.from_dict({"flat": [("a", "a"), ("a", "b")]})
        rows = db.match(Literal("flat", ["X", "X"]))
        assert set(rows) == {("a", "a")}

    def test_match_unknown_predicate(self):
        assert Database().match(Literal("p", ["X"])) == []

    def test_arity_query(self):
        db = Database.from_dict({"up": [("a", "b")]})
        assert db.arity("up") == 2
        assert db.arity("nosuch") is None

    def test_copy_is_independent(self):
        db = Database.from_dict({"up": [("a", "b")]})
        clone = db.copy()
        clone.add_fact("up", ("x", "y"))
        assert db.count("up") == 1
        assert clone.count("up") == 2

    def test_equality_compares_contents(self):
        db1 = Database.from_dict({"up": [("a", "b")]})
        db2 = Database.from_dict({"up": [("a", "b")]})
        db3 = Database.from_dict({"up": [("a", "c")]})
        assert db1 == db2
        assert db1 != db3

    def test_to_facts(self):
        db = Database.from_dict({"up": [("a", "b")]})
        facts = db.to_facts()
        assert len(facts) == 1
        assert facts[0].is_fact


class TestInstrumentation:
    def test_match_charges_retrievals(self):
        counters = Counters()
        db = Database.from_dict({"up": [("a", "b"), ("a", "c")]}, counters=counters)
        db.match(Literal("up", ["a", "Y"]))
        assert counters.fact_retrievals == 2
        assert counters.distinct_facts == 2

    def test_distinct_facts_not_double_counted(self):
        counters = Counters()
        db = Database.from_dict({"up": [("a", "b")]}, counters=counters)
        db.match(Literal("up", ["a", "Y"]))
        db.match(Literal("up", ["a", "Y"]))
        assert counters.fact_retrievals == 2
        assert counters.distinct_facts == 1

    def test_contains_charges_only_hits(self):
        counters = Counters()
        db = Database.from_dict({"up": [("a", "b")]}, counters=counters)
        assert db.contains("up", ("a", "b"))
        assert not db.contains("up", ("b", "a"))
        assert counters.fact_retrievals == 1

    def test_charge_can_be_disabled(self):
        counters = Counters()
        db = Database.from_dict({"up": [("a", "b")]}, counters=counters)
        db.match(Literal("up", ["X", "Y"]), charge=False)
        assert counters.fact_retrievals == 0

    def test_reset_instrumentation(self):
        counters = Counters()
        db = Database.from_dict({"up": [("a", "b")]}, counters=counters)
        db.match(Literal("up", ["X", "Y"]))
        db.reset_instrumentation()
        assert counters.fact_retrievals == 0
        db.match(Literal("up", ["X", "Y"]))
        assert counters.distinct_facts == 1


ANSWER_ROWS = [
    (1, 2, 3),
    (1, 2, 2),
    (1, 3, 3),
    (2, 2, 2),
    (2, 3, 1),
    (3, 1, 3),
]

ANSWER_SHAPES = {
    "all-free": "r(X, Y, Z)",
    "one-constant": "r(1, Y, Z)",
    "two-constants": "r(1, Y, 3)",
    "unknown-constant": "r(9, Y, Z)",
    "repeated-variable": "r(X, Y, Y)",
    "constant-and-repeated": "r(1, Y, Y)",
    "repeated-around-constant": "r(X, 2, X)",
    "ground-present": "r(1, 2, 3)",
    "ground-absent": "r(1, 2, 1)",
    "wrong-arity": "r(X, Y)",
    "absent-predicate": "s(X, Y, Z)",
}


def _overlay_database():
    base = Database.from_dict({"r": ANSWER_ROWS[:4]})
    overlay = Database.overlay(base)
    overlay.add_facts("r", ANSWER_ROWS[4:])
    return overlay


def _deleted_database():
    db = Database.from_dict({"r": ANSWER_ROWS + [(1, 4, 4), (4, 4, 4)]})
    # Build the subset indexes the bound shapes read, as join plans would,
    # so the deletes below go through bucket maintenance.
    table = db.relations["r"].table
    for bindings in ({0: 1}, {1: 2}, {0: 1, 2: 3}):
        table.bucket(bindings)
    db.remove_facts("r", [(1, 4, 4), (4, 4, 4)])
    return db


ANSWER_DATABASES = {
    "plain": lambda: Database.from_dict({"r": ANSWER_ROWS}),
    "overlay": _overlay_database,
    "after-deletes": _deleted_database,
}


class TestAnswers:
    """``Database.answers`` against the row-filtering oracle, every shape."""

    @pytest.mark.parametrize("shape", sorted(ANSWER_SHAPES))
    @pytest.mark.parametrize("make", sorted(ANSWER_DATABASES))
    def test_matches_the_oracle(self, make, shape):
        db = ANSWER_DATABASES[make]()
        query = parse_literal(ANSWER_SHAPES[shape])
        expected = answer_against_relation(db.rows(query.predicate), query)
        assert db.answers(query) == expected
        if shape == "ground-present":
            assert expected == {()}
        if shape in ("ground-absent", "wrong-arity", "absent-predicate"):
            assert expected == set()

    @pytest.mark.parametrize("shape", sorted(ANSWER_SHAPES))
    def test_overlay_before_and_after_a_write_to_the_shared_relation(self, shape):
        base = Database.from_dict({"r": ANSWER_ROWS[:4]})
        overlay = Database.overlay(base)
        query = parse_literal(ANSWER_SHAPES[shape])

        def oracle(db):
            return answer_against_relation(db.rows(query.predicate), query)

        assert overlay.answers(query) == oracle(base)
        # A write through the base lands in the relation the overlay shares.
        base.add_facts("r", ANSWER_ROWS[4:])
        assert overlay.answers(query) == oracle(base)
        # The overlay's own write clones the relation; the base keeps its rows.
        overlay.remove_fact("r", (1, 2, 3))
        assert overlay.answers(query) == oracle(overlay)
        assert base.answers(query) == oracle(base)

    def test_every_call_returns_a_set_the_caller_owns(self):
        db = Database.from_dict({"r": ANSWER_ROWS})
        for text in ANSWER_SHAPES.values():
            query = parse_literal(text)
            first = db.answers(query)
            assert type(first) is set
            first.add(("junk",))
            assert ("junk",) not in db.answers(query)

    def test_answers_charge_nothing(self):
        counters = Counters()
        db = Database.from_dict({"r": ANSWER_ROWS}, counters=counters)
        for text in ANSWER_SHAPES.values():
            db.answers(parse_literal(text))
        assert counters.as_dict() == Counters().as_dict()

    def test_answers_build_no_index(self):
        # An index built to answer once would be maintained on every later
        # write; a relation nothing joins against is filtered instead.
        db = Database.from_dict({"r": ANSWER_ROWS})
        for text in ANSWER_SHAPES.values():
            db.answers(parse_literal(text))
        assert db.relations["r"].table._indexes == {}


class TestAnswerCost:
    """A session answer reads the index bucket or the row view, never a copy."""

    @staticmethod
    def _forbid_copies(monkeypatch, forbid_row_views):
        def forbidden(*_args):
            raise AssertionError("the answer materialised the whole relation")

        monkeypatch.setattr(IntTable, "row_set", forbidden)
        if forbid_row_views:
            monkeypatch.setattr(IntTable, "all_rows", forbidden)
            monkeypatch.setattr(IntTable, "__iter__", forbidden)

    def test_bound_answer_reads_only_its_bucket(self, monkeypatch):
        program, database, query = binary_tree(7)
        expected = answer_query(program, query, database)
        pruned = database.copy()
        pruned.remove_fact("edge", (2, 4))
        expected_after = answer_query(program, query, pruned)
        assert expected_after < expected
        session = QuerySession(program, database, engine="seminaive")
        session.materialization("seminaive")
        with monkeypatch.context() as patch:
            self._forbid_copies(patch, forbid_row_views=True)
            assert session.query(query).answers == expected
        session.retract({"edge": [(2, 4)]})
        with monkeypatch.context() as patch:
            self._forbid_copies(patch, forbid_row_views=True)
            assert session.query(query).answers == expected_after

    def test_unbound_answer_builds_no_frozenset(self, monkeypatch):
        program, database, _ = binary_tree(7)
        query = parse_literal("tc(X, Y)")
        expected = answer_query(program, query, database)
        session = QuerySession(program, database, engine="seminaive")
        session.materialization("seminaive")
        self._forbid_copies(monkeypatch, forbid_row_views=False)
        assert session.query(query).answers == expected
