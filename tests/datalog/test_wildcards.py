"""Anonymous variables: fresh per occurrence, projection-only, negation-safe.

Regression suite for the wildcard aliasing soundness bug: the parser used to
read every ``_`` as one shared variable named ``_``, so ``p(X) :- q(X, _, _).``
silently joined the two wildcard columns against each other and dropped every
row whose last two components differ -- in all engines, in both execution
modes.  Each ``_`` now parses to a fresh anonymous variable.
"""

import pytest

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.errors import UnsafeRuleError
from repro.datalog.parser import parse_literal, parse_program, parse_rules
from repro.datalog.semantics import answer_query, least_model, stratified_model
from repro.datalog.terms import Variable
from repro.engines import available_engines, get_engine

ALL_ENGINES = sorted(available_engines())


class TestParsing:
    def test_each_wildcard_is_a_fresh_variable(self):
        (rule,) = parse_rules("p(X) :- q(X, _, _).")
        _, second, third = rule.body[0].args
        assert isinstance(second, Variable) and isinstance(third, Variable)
        assert second.is_anonymous and third.is_anonymous
        assert second != third

    def test_wildcard_numbering_restarts_per_clause(self):
        first, second = parse_rules("p(X) :- q(X, _). r(Y) :- s(Y, _).")
        assert first.body[0].args[1] == second.body[0].args[1]

    def test_wildcards_print_as_underscore_and_round_trip(self):
        (rule,) = parse_rules("p(X) :- q(X, _, _).")
        assert str(rule) == "p(X) :- q(X, _, _)."
        assert parse_rules(str(rule)) == [rule]

    def test_underscore_prefixed_names_stay_ordinary_variables(self):
        (rule,) = parse_rules("p(X) :- q(X, _v, _v).")
        _, second, third = rule.body[0].args
        assert second == third == Variable("_v")
        assert not second.is_anonymous

    def test_wildcard_in_query_literal(self):
        query = parse_literal("p(a, _, _)")
        second, third = query.args[1], query.args[2]
        assert second.is_anonymous and third.is_anonymous and second != third
        assert parse_literal(str(query)) == query


class TestSafety:
    def test_wildcard_under_negation_is_safe(self):
        program = parse_program("s(X) :- n(X), not e(X, _).")
        assert program.rules[0].is_safe()

    def test_named_variable_under_negation_stays_unsafe(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("s(X) :- n(X), not e(X, Y).")

    def test_wildcard_in_head_is_unsafe(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X, _) :- q(X).")

    def test_wildcard_in_builtin_is_unsafe(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X) :- q(X), _ < 3.")


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_wildcard_projection_regression_in_every_engine(engine_name):
    """``p(X) :- q(X, _, _).`` over ``q(a,1,2)`` yields ``p(a)`` everywhere."""
    program = parse_program("p(X) :- q(X, _, _).")
    database = Database.from_dict({"q": [("a", 1, 2), ("b", 5, 5)]})
    query = parse_literal("p(X)")
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip(f"{engine_name} not applicable to this rule shape")
    result = engine.answer(program, query, database)
    assert result.answers == {("a",), ("b",)}, (
        f"{engine_name} aliased the wildcard columns"
    )


@pytest.mark.parametrize("plan", ["legacy", "cost"])
@pytest.mark.parametrize("plan_mode", ["interpreted", "columnar", "row-fallback"])
def test_wildcard_projection_in_both_modes(plan, plan_mode, execution_cell):
    program = parse_program("p(X) :- q(X, _, _).")
    database = Database.from_dict({"q": [("a", 1, 2), ("c", 7, 7)]})
    with configured(plan=plan), execution_cell(plan_mode):
        assert answer_query(program, parse_literal("p(X)"), database) == {
            ("a",),
            ("c",),
        }


class TestNegatedWildcards:
    """``not e(X, _)`` is an existential anti-join, in every execution path."""

    PROGRAM = """
        s(X) :- n(X), not e(X, _).
    """
    FACTS = {"n": [(1,), (2,), (3,)], "e": [(1, "a"), (3, "b")]}

    def expected(self):
        return {(2,)}

    @pytest.mark.parametrize("plan", ["legacy", "cost"])
    @pytest.mark.parametrize("plan_mode", ["interpreted", "columnar", "row-fallback"])
    def test_model_engines_both_modes(self, plan, plan_mode, execution_cell):
        program = parse_program(self.PROGRAM)
        query = parse_literal("s(X)")
        for engine_name in ("naive", "seminaive"):
            database = Database.from_dict(self.FACTS)
            with configured(plan=plan), execution_cell(plan_mode):
                result = get_engine(engine_name).answer(program, query, database)
            assert result.answers == self.expected(), (
                f"{engine_name} ({plan}/{plan_mode})"
            )

    def test_reference_evaluator(self):
        program = parse_program(self.PROGRAM)
        model = stratified_model(program, Database.from_dict(self.FACTS))
        assert model.rows("s") == self.expected()

    def test_repeated_wildcards_under_negation(self):
        # not e(_, _): fail as soon as any e row exists at all.
        program = parse_program("s(X) :- n(X), not e(_, _).")
        empty = Database.from_dict({"n": [(1,)], "e": []})
        assert least_model(program, empty).rows("s") == {(1,)}
        populated = Database.from_dict({"n": [(1,)], "e": [(7, 8)]})
        assert least_model(program, populated).rows("s") == frozenset()

    def test_mixed_bound_and_wildcard_positions(self):
        program = parse_program("s(X) :- n(X), not e(X, _, X).")
        database = Database.from_dict(
            {"n": [(1,), (2,)], "e": [(1, "m", 1), (2, "m", 99)]}
        )
        # e(1, m, 1) matches X=1 with the middle position existential;
        # e(2, m, 99) does not match X=2 on the third position.
        assert least_model(program, database).rows("s") == {(2,)}


def test_wildcards_in_recursive_rules():
    program = parse_program(
        """
        tc(X, Y) :- e(X, Y, _).
        tc(X, Z) :- e(X, Y, _), tc(Y, Z).
        """
    )
    database = Database.from_dict(
        {"e": [(1, 2, "u"), (2, 3, "v"), (3, 4, "w")]}
    )
    expected = answer_query(program, parse_literal("tc(1, Y)"), database)
    assert expected == {(2,), (3,), (4,)}
    for engine_name in ("naive", "seminaive", "magic", "topdown"):
        result = get_engine(engine_name).answer(
            program, parse_literal("tc(1, Y)"), database
        )
        assert result.answers == expected, engine_name
