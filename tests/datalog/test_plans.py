"""Unit tests for the compiled join plans of repro.datalog.plans."""

import pytest

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.errors import EvaluationError
from repro.datalog.literals import Literal
from repro.datalog.plans import (
    SOURCE_DERIVED,
    SOURCE_MAIN,
    body_plan,
    compile_plan,
    delta_plan,
    delta_plans,
    rule_plan,
)
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.instrumentation import Counters


def lit(pred, *args):
    return Literal(pred, list(args))


X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


def db():
    return Database.from_dict(
        {
            "up": [("a", "b"), ("b", "c")],
            "flat": [("c", "c"), ("b", "d")],
            "num": [(1,), (2,), (3,)],
            "e": [(1, 2), (2, 3)],
        }
    )


class TestOrdering:
    def test_sip_order_preserves_textual_order_when_tied(self):
        plan = compile_plan([lit("up", "X", "Y"), lit("flat", "Y", "Z")])
        assert plan.scan_literals == (lit("up", "X", "Y"), lit("flat", "Y", "Z"))

    def test_bound_literal_scanned_first(self):
        # flat shares no variable with the initial binding; up does.
        plan = compile_plan(
            [lit("flat", "Y", "Z"), lit("up", "X", "W")], bound_vars=frozenset({X})
        )
        assert plan.scan_literals == (lit("up", "X", "W"), lit("flat", "Y", "Z"))

    def test_constants_count_as_bound_positions(self):
        plan = compile_plan([lit("flat", "Y", "Z"), lit("up", "a", "W")])
        assert plan.scan_literals[0] == lit("up", "a", "W")

    def test_join_variable_propagates_through_order(self):
        # Written back to front: the greedy order must rebuild the chain.
        plan = compile_plan(
            [lit("e", "Z", "W"), lit("e", "Y", "Z"), lit("e", "X", "Y")],
            bound_vars=frozenset({X}),
        )
        assert plan.scan_literals == (
            lit("e", "X", "Y"),
            lit("e", "Y", "Z"),
            lit("e", "Z", "W"),
        )


class TestBuiltinPlacement:
    def test_builtin_attached_at_earliest_ground_point(self):
        plan = compile_plan(
            [lit("<", "X", "Y"), lit("num", "X"), lit("num", "Y")]
        )
        # The comparison sits after the second scan, where Y first binds.
        assert plan.ordered_body == (
            lit("num", "X"),
            lit("num", "Y"),
            lit("<", "X", "Y"),
        )

    def test_builtin_ground_under_initial_bindings_is_a_precheck(self):
        plan = compile_plan(
            [lit("<", "X", "Y"), lit("num", "Z")], bound_vars=frozenset({X, Y})
        )
        assert plan.pre_checks and plan.pre_checks[0].literal == lit("<", "X", "Y")

    def test_never_ground_builtin_rejected_at_plan_time(self):
        with pytest.raises(EvaluationError, match="never becomes ground"):
            compile_plan([lit("num", "X"), lit("<", "X", "Y")])

    def test_two_never_ground_builtins_rejected_at_plan_time(self):
        # The historical deferral queue rotated [X<Y, Y<Z] forever.
        with pytest.raises(EvaluationError, match="never becomes ground"):
            compile_plan([lit("<", "X", "Y"), lit("<", "Y", "Z"), lit("num", "X")])

    def test_builtin_filter_results(self):
        plan = compile_plan([lit("num", "X"), lit("num", "Y"), lit("<", "X", "Y")])
        results = {(s[X], s[Y]) for s in plan.substitutions(db())}
        assert results == {(1, 2), (1, 3), (2, 3)}


class TestHeads:
    def test_head_rows(self):
        rule = Rule(lit("p", "X", "Z"), [lit("up", "X", "Y"), lit("flat", "Y", "Z")])
        plan = rule_plan(rule)
        assert set(plan.heads(db())) == {("b", "c"), ("a", "d")}

    def test_non_ground_head_raises_only_when_a_row_is_produced(self):
        rule = Rule(lit("p", "X", "W"), [lit("up", "X", "Y")])
        plan = compile_plan(rule.body, head=rule.head)
        with pytest.raises(EvaluationError, match="non-ground head"):
            list(plan.heads(db()))
        # No body match, no error: parity with the interpreted join.
        assert list(plan.heads(Database())) == []

    def test_fact_rule_yields_once(self):
        rule = Rule(lit("p", "a", "b"))
        assert list(rule_plan(rule).heads(Database())) == [("a", "b")]


class TestDeltaVariants:
    RULE = Rule(
        lit("sg", "X", "Y"),
        [lit("up", "X", "X1"), lit("sg", "X1", "Y1"), lit("down", "Y1", "Y")],
    )

    def test_one_variant_per_recursive_occurrence(self):
        plans = delta_plans(self.RULE, frozenset({"sg"}))
        assert len(plans) == 1
        nonlinear = Rule(
            lit("anc", "X", "Y"), [lit("anc", "X", "Z"), lit("anc", "Z", "Y")]
        )
        assert len(delta_plans(nonlinear, frozenset({"anc"}))) == 2

    def test_delta_occurrence_reads_derived_only(self):
        plan = delta_plan(self.RULE, frozenset({"sg"}), 0)
        sources = {step.literal.predicate: step.source for step in plan.steps}
        assert sources["sg"] == SOURCE_DERIVED
        assert sources["up"] == SOURCE_MAIN
        assert sources["down"] == SOURCE_MAIN

    def test_delta_execution_restricted_to_delta(self):
        database = Database.from_dict(
            {"up": [("a", "b")], "down": [("y", "z")], "sg": [("b", "x"), ("b", "y")]}
        )
        delta = Database.from_dict({"sg": [("b", "y")]})
        plan = delta_plan(self.RULE, frozenset({"sg"}), 0)
        assert set(plan.heads(database, derived=delta)) == {("a", "z")}

    def test_out_of_range_occurrence_rejected(self):
        with pytest.raises(EvaluationError):
            delta_plan(self.RULE, frozenset({"sg"}), 1)


class TestCacheAndModes:
    def test_plans_are_cached(self):
        rule = Rule(lit("p", "X"), [lit("num", "X")])
        assert rule_plan(rule) is rule_plan(rule)
        body = (lit("num", "X"),)
        assert body_plan(body) is body_plan(body)
        assert body_plan(body, bound_vars=frozenset({X})) is not body_plan(body)

    def test_interpreted_mode_matches_compiled(self):
        body = [lit("up", "X", "Y"), lit("flat", "Y", "Z"), lit("num", "W")]
        database = db()
        compiled = {
            frozenset(s.items()) for s in body_plan(tuple(body)).substitutions(database)
        }
        with configured(execution="interpreted"):
            interpreted = {
                frozenset(s.items())
                for s in body_plan(tuple(body)).substitutions(database)
            }
        assert compiled == interpreted


class TestRepeatedVariablesAndSources:
    def test_repeated_variable_within_literal(self):
        plan = body_plan((lit("flat", "X", "X"),))
        assert {s[X] for s in plan.substitutions(db())} == {"c"}

    def test_repeated_variable_across_literals(self):
        plan = body_plan((lit("up", "X", "Y"), lit("flat", "X", "Y")))
        assert list(plan.substitutions(db())) == []

    def test_scan_charges_exactly_the_matching_rows(self):
        counters = Counters()
        database = Database.from_dict(
            {"up": [("a", "b"), ("a", "c"), ("b", "d")]}, counters=counters
        )
        plan = body_plan((lit("up", "a", "Y"),))
        list(plan.substitutions(database))
        assert counters.fact_retrievals == 2
        assert counters.distinct_facts == 2
