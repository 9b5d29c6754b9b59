"""Unit tests for negated literals and aggregate heads across the substrate:
parsing and pretty-printing, structural validation, anti-join plan slots in
both execution modes, aggregate folds, and the stratified reference model."""

import pytest

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.errors import (
    DatalogSyntaxError,
    EvaluationError,
    ProgramValidationError,
    UnsafeRuleError,
)
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program, parse_rules
from repro.datalog.plans import aggregate_plan, rule_plan
from repro.datalog.rules import Rule
from repro.datalog.semantics import answer_query, least_model, stratified_model
from repro.datalog.terms import AggregateTerm, Constant, Variable
from repro.instrumentation import Counters


class TestParsingAndPrinting:
    def test_negated_literal_round_trip(self):
        literal = parse_literal("not tc(X, a)")
        assert literal.negated
        assert literal.predicate == "tc"
        assert literal.positive() == parse_literal("tc(X, a)")
        assert parse_literal(str(literal)) == literal

    def test_negated_zero_arity_literal(self):
        literal = parse_literal("not halted")
        assert literal == Literal("halted", [], negated=True)
        assert parse_literal(str(literal)) == literal

    def test_negation_binds_inside_rule_bodies(self):
        (rule,) = parse_rules("unreach(X, Y) :- node(X), node(Y), not tc(X, Y).")
        assert [lit.negated for lit in rule.body] == [False, False, True]
        assert rule.negated_body() == (Literal("tc", ["X", "Y"], negated=True),)
        assert parse_rules(str(rule)) == [rule]

    def test_double_negation_is_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_literal("not not p(X)")

    def test_negated_builtin_is_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_literal("not X < 3")

    def test_aggregate_head_round_trip(self):
        (rule,) = parse_rules("sp(X, Y, min(N)) :- dist(X, Y, N).")
        assert rule.is_aggregate
        assert rule.head.args[2] == AggregateTerm("min", Variable("N"))
        assert str(rule) == "sp(X, Y, min(N)) :- dist(X, Y, N)."
        assert parse_rules(str(rule)) == [rule]

    @pytest.mark.parametrize("func", ["min", "max", "sum", "count"])
    def test_every_aggregate_function_parses(self, func):
        (rule,) = parse_rules(f"agg(X, {func}(N)) :- r(X, N).")
        assert rule.head.aggregate_terms()[0].func == func

    def test_aggregate_over_a_constant_is_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_rules("agg(X, min(3)) :- r(X, N).")

    def test_tuple_constants_round_trip(self):
        literal = Literal("p", [Constant((1, "a", (2, 3)))])
        assert str(literal) == "p(t(1, a, t(2, 3)))"
        assert parse_literal(str(literal)) == literal

    def test_top_level_t_and_min_stay_ordinary_atoms(self):
        assert parse_literal("t(1, 2)") == Literal("t", [Constant(1), Constant(2)])
        assert parse_literal("min(X)") == Literal("min", [Variable("X")])

    def test_tuple_with_a_variable_is_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_literal("p(t(X, 1))")


class TestValidation:
    def test_negated_head_is_rejected(self):
        with pytest.raises(ProgramValidationError):
            Rule(Literal("p", ["X"], negated=True), [Literal("q", ["X"])])

    def test_aggregate_in_body_is_rejected(self):
        head = Literal("p", ["X"])
        body = [Literal("q", [Variable("X"), AggregateTerm("min", Variable("N"))])]
        with pytest.raises(ProgramValidationError):
            Rule(head, body)

    def test_aggregate_fact_is_rejected(self):
        with pytest.raises(ProgramValidationError):
            Rule(Literal("p", [AggregateTerm("count", Variable("N"))]))

    def test_negated_variables_must_be_positively_bound(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X) :- q(X), not r(X, Y).")

    def test_aggregated_variable_must_be_positively_bound(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X, min(N)) :- q(X).")

    def test_safe_stratified_rules_validate(self):
        program = parse_program(
            """
            p(X) :- q(X), not r(X).
            s(X, count(Y)) :- q(X), t(X, Y).
            """
        )
        assert program.has_negation and program.has_aggregation
        assert not program.is_positive


class TestNegationPlans:
    def _db(self):
        return Database.from_dict(
            {"node": [(1,), (2,), (3,)], "tc": [(1, 2), (1, 3)]}
        )

    def _rows(self, rule, database, mode):
        """The head rows of ``rule`` over ``database``: through the
        generator entry point in ``mode``, or as one columnar batch."""
        if mode == "batch":
            return set(rule_plan(rule).head_batch(database))
        with configured(execution=mode):
            return set(rule_plan(rule).heads(database))

    @pytest.mark.parametrize("mode", ["interpreted", "columnar", "batch"])
    def test_anti_join_filters_matching_rows(self, mode):
        (rule,) = parse_rules("unreach(X, Y) :- node(X), node(Y), not tc(X, Y).")
        rows = self._rows(rule, self._db(), mode)
        assert (1, 2) not in rows and (1, 3) not in rows
        assert (2, 1) in rows and (1, 1) in rows
        assert len(rows) == 9 - 2

    def test_columnar_and_interpreted_charge_identically(self):
        (rule,) = parse_rules("unreach(X, Y) :- node(X), node(Y), not tc(X, Y).")
        results = {}
        for mode in ("interpreted", "columnar", "batch"):
            counters = Counters()
            database = self._db()
            database.reset_instrumentation(counters)
            rows = self._rows(rule, database, mode)
            results[mode] = (rows, counters.as_dict())
        assert results["columnar"] == results["interpreted"]
        assert results["batch"] == results["interpreted"]

    def test_ground_negation_becomes_a_pre_check(self):
        (rule,) = parse_rules("p(X) :- not q(a), r(X).")
        plan = rule_plan(rule)
        assert [lit.predicate for lit in plan.ordered_body][0] == "q"
        empty = Database.from_dict({"r": [(1,)]})
        assert set(plan.heads(empty)) == {(1,)}
        blocked = Database.from_dict({"r": [(1,)], "q": [("a",)]})
        assert set(plan.heads(blocked)) == set()

    def test_unbindable_negation_is_rejected_at_plan_time(self):
        from repro.datalog.plans import compile_plan

        body = (Literal("q", ["X"]), Literal("r", ["X", "Y"], negated=True))
        with pytest.raises(EvaluationError):
            compile_plan(body, head=Literal("p", ["X"]))


class TestAggregateFolds:
    @pytest.mark.parametrize("mode", ["interpreted", "columnar"])
    def test_folds_group_by_plain_head_terms(self, mode):
        (rule,) = parse_rules("best(X, min(N), max(N)) :- d(X, N).")
        database = Database.from_dict({"d": [(1, 5), (1, 2), (2, 7), (2, 7)]})
        with configured(execution=mode):
            rows = set(aggregate_plan(rule).heads(database))
        assert rows == {(1, 2, 5), (2, 7, 7)}

    def test_count_and_sum_fold_distinct_values(self):
        (rule,) = parse_rules("stats(X, count(Y), sum(Y)) :- e(X, Y).")
        database = Database.from_dict({"e": [(1, 10), (1, 20), (1, 10), (2, 5)]})
        rows = set(aggregate_plan(rule).heads(database))
        assert rows == {(1, 2, 30), (2, 1, 5)}

    def test_empty_relation_produces_no_groups(self):
        (rule,) = parse_rules("best(X, min(N)) :- d(X, N).")
        assert list(aggregate_plan(rule).heads(Database())) == []


class TestStratifiedSemantics:
    def test_least_model_routes_to_the_perfect_model(self):
        program = parse_program(
            """
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
            unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
            edge(1, 2). node(1). node(2).
            """
        )
        model = least_model(program)
        assert model.rows("unreach") == {(1, 1), (2, 1), (2, 2)}
        assert model == stratified_model(program)

    def test_answer_query_over_aggregates(self):
        program = parse_program(
            """
            sp(X, min(N)) :- d(X, N).
            d(1, 4). d(1, 2). d(2, 9).
            """
        )
        assert answer_query(program, parse_literal("sp(1, N)")) == {(2,)}

    def test_reference_model_handles_builtins_next_to_negation(self):
        program = parse_program(
            """
            big(X) :- n(X), X > 2.
            lonely(X) :- n(X), not big(X).
            n(1). n(2). n(3). n(4).
            """
        )
        model = stratified_model(program)
        assert model.rows("lonely") == {(1,), (2,)}
