"""Tests for the cyclic-data iteration bound (repro.core.cyclic, Figure 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cyclic import (
    accessible_nodes,
    decompose_linear,
    iteration_bound,
    query_with_cycle_bound,
)
from repro.core.lemma1 import transform
from repro.datalog.database import Database
from repro.datalog.errors import NotApplicableError
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.relalg.expressions import compose, pred
from repro.relalg.relation import BinaryRelation

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""


def figure8_database(m: int, n: int) -> Database:
    """The cyclic sample of Figure 8: an up-cycle of length m, a down-cycle of length n."""
    up = [(f"a{i}", f"a{i % m + 1}") for i in range(1, m + 1)]
    down = [(f"b{i}", f"b{i % n + 1}") for i in range(1, n + 1)]
    flat = [("a1", "b1")]
    return Database.from_dict({"up": up, "down": down, "flat": flat})


class TestDecomposition:
    def test_sg_decomposes_into_up_and_down(self):
        system = transform(parse_program(SG)).system
        decomposition = decompose_linear(system, "sg")
        assert decomposition.base == pred("flat")
        assert decomposition.left == pred("up")
        assert decomposition.right == pred("down")

    def test_right_linear_equation_has_no_left_context(self):
        system = transform(
            parse_program("p(X, Y) :- b(X, Y). p(X, Z) :- p(X, Y), c(Y, Z).")
        ).system
        # Lemma 1 already turns this into p = b.c*, which has no recursion at
        # all, so the decomposition degenerates to just the base expression.
        decomposition = decompose_linear(system, "p")
        assert decomposition.left is None and decomposition.right is None

    def test_equation_with_other_derived_predicates_rejected(self):
        system = transform(
            parse_program(
                """
                p(X, Y) :- f(X, Y).
                p(X, Z) :- a(X, X1), q(X1, Y1), b(Y1, Z).
                q(X, Y) :- g(X, Y).
                q(X, Z) :- c(X, X1), p(X1, Y1), d(Y1, Z).
                """
            )
        ).system
        recursive = [p for p in ("p", "q") if system.rhs(p).contains(p)]
        other = "q" if recursive == ["p"] else "p"
        with pytest.raises(NotApplicableError):
            decompose_linear(system, other)


class TestAccessibleNodesAndBound:
    def test_accessible_nodes_from_query_constant(self):
        database = figure8_database(3, 4)
        nodes = accessible_nodes(pred("up"), database, start="a1")
        assert nodes == {"a1", "a2", "a3"}

    def test_accessible_nodes_without_start(self):
        database = figure8_database(3, 4)
        nodes = accessible_nodes(pred("down"), database)
        assert nodes == {"b1", "b2", "b3", "b4"}

    def test_missing_expression_contributes_one_virtual_node(self):
        assert accessible_nodes(None, Database()) == {None}

    def test_bound_is_product_of_cycle_lengths(self):
        system = transform(parse_program(SG)).system
        database = figure8_database(3, 4)
        assert iteration_bound(system, database, "sg", "a1") == 12

    def test_bound_on_acyclic_data(self):
        system = transform(parse_program(SG)).system
        database = Database.from_dict(
            {"up": [("a", "b"), ("b", "c")], "flat": [("c", "c")], "down": [("c", "d")]}
        )
        assert iteration_bound(system, database, "sg", "a") == 3 * 2


def relational_algebra_nodes(database: Database, name: str) -> set:
    """The accessible nodes of a stored relation, rebuilt from its rows."""
    return BinaryRelation.from_rows(database.rows(name)).active_domain() or {None}


node_values = st.integers(min_value=0, max_value=7)
edges = st.tuples(node_values, node_values)


class TestKernelCountedNodes:
    """A stored relation's nodes come from the kernel's column code sets;
    they must equal domain ∪ range computed in relational algebra."""

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(edges, max_size=12),
        steps=st.lists(st.tuples(st.booleans(), edges), max_size=24),
        through_overlay=st.booleans(),
    )
    def test_equals_relational_algebra_under_updates(self, initial, steps, through_overlay):
        base = Database()
        base.add_facts("r", initial)
        assert accessible_nodes(pred("r"), base) == relational_algebra_nodes(base, "r")
        database = Database.overlay(base) if through_overlay else base
        for insert, edge in steps:
            if insert:
                database.add_fact("r", edge)
            else:
                database.remove_fact("r", edge)
            assert accessible_nodes(pred("r"), database) == relational_algebra_nodes(
                database, "r"
            )
            if through_overlay:
                assert accessible_nodes(pred("r"), base) == relational_algebra_nodes(
                    base, "r"
                )

    def test_missing_relation_is_one_virtual_node(self):
        assert accessible_nodes(pred("r"), Database()) == {None}

    def test_emptied_relation_is_one_virtual_node(self):
        database = Database.from_dict({"r": [(1, 2)]})
        assert accessible_nodes(pred("r"), database) == {1, 2}
        database.remove_fact("r", (1, 2))
        assert accessible_nodes(pred("r"), database) == {None}

    def test_non_binary_relation_rejected(self):
        database = Database.from_dict({"r": [(1, 2, 3)]})
        with pytest.raises(ValueError):
            accessible_nodes(pred("r"), database)

    def test_composite_side_matches_relational_algebra(self):
        database = Database.from_dict({"b": [(1, 2), (2, 3)], "c": [(0, 1), (3, 0)]})
        nodes = accessible_nodes(compose(pred("c"), pred("b")), database)
        assert nodes == {0, 2}


class TestCycleBoundedEvaluation:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (3, 5)])
    def test_full_answer_on_figure8(self, m, n):
        """With coprime cycle lengths the full answer needs m*n iterations."""
        program = parse_program(SG)
        system = transform(program).system
        database = figure8_database(m, n)
        result = query_with_cycle_bound(system, database, "sg", "a1")
        expected = {
            v[0] for v in answer_query(program, parse_literal("sg(a1, Y)"), database)
        }
        assert result.answers == expected
        assert result.terminated
        assert result.iterations <= m * n

    def test_acyclic_data_stops_before_the_bound(self):
        program = parse_program(SG)
        system = transform(program).system
        database = Database.from_dict(
            {
                "up": [("a", "b"), ("b", "c")],
                "flat": [("c", "c"), ("b", "d")],
                "down": [("c", "e"), ("d", "f")],
            }
        )
        result = query_with_cycle_bound(system, database, "sg", "a")
        expected = {v[0] for v in answer_query(program, parse_literal("sg(a, Y)"), database)}
        assert result.answers == expected
        assert result.iterations < iteration_bound(system, database, "sg", "a")

    def test_counters_record_the_bound(self):
        program = parse_program(SG)
        system = transform(program).system
        database = figure8_database(2, 3)
        result = query_with_cycle_bound(system, database, "sg", "a1")
        assert result.counters.extras["iteration_bound"] == 6
