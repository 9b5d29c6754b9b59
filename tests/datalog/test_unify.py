"""Unit tests for repro.datalog.unify."""


from repro.datalog.database import Database
from repro.datalog.literals import Literal
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.datalog.unify import (
    apply_to_literal,
    apply_to_rule,
    match_literal,
    rename_apart,
    satisfy_body,
)


def lit(pred, *args):
    return Literal(pred, list(args))


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestMatchLiteral:
    def test_binds_variables(self):
        assert match_literal(lit("up", "X", "Y"), ("a", "b")) == {X: "a", Y: "b"}

    def test_respects_constants(self):
        assert match_literal(lit("up", "a", "Y"), ("a", "b")) == {Y: "b"}
        assert match_literal(lit("up", "a", "Y"), ("c", "b")) is None

    def test_repeated_variables_must_agree(self):
        assert match_literal(lit("p", "X", "X"), ("a", "a")) == {X: "a"}
        assert match_literal(lit("p", "X", "X"), ("a", "b")) is None

    def test_existing_bindings_respected(self):
        assert match_literal(lit("up", "X", "Y"), ("a", "b"), {X: "a"}) == {X: "a", Y: "b"}
        assert match_literal(lit("up", "X", "Y"), ("a", "b"), {X: "z"}) is None

    def test_input_substitution_not_mutated(self):
        initial = {X: "a"}
        match_literal(lit("up", "X", "Y"), ("a", "b"), initial)
        assert initial == {X: "a"}

    def test_arity_mismatch(self):
        assert match_literal(lit("up", "X"), ("a", "b")) is None


class TestApply:
    def test_apply_to_literal(self):
        result = apply_to_literal(lit("up", "X", "Y"), {X: "a"})
        assert result == lit("up", "a", "Y")

    def test_apply_to_rule(self):
        r = Rule(lit("p", "X", "Z"), [lit("q", "X", "Y"), lit("r", "Y", "Z")])
        applied = apply_to_rule(r, {X: 1, Z: 3})
        assert applied.head == lit("p", 1, 3)
        assert applied.body[0] == lit("q", 1, "Y")


class TestSatisfyBody:
    def db(self):
        return Database.from_dict(
            {
                "up": [("a", "b"), ("b", "c")],
                "flat": [("c", "c"), ("b", "d")],
                "num": [(1,), (2,), (3,)],
            }
        )

    def test_single_literal(self):
        results = list(satisfy_body([lit("up", "X", "Y")], self.db()))
        assert {(s[X], s[Y]) for s in results} == {("a", "b"), ("b", "c")}

    def test_join_two_literals(self):
        body = [lit("up", "X", "Y"), lit("flat", "Y", "Z")]
        results = list(satisfy_body(body, self.db()))
        assert {(s[X], s[Y], s[Z]) for s in results} == {("b", "c", "c"), ("a", "b", "d")}

    def test_initial_bindings_restrict(self):
        body = [lit("up", "X", "Y")]
        results = list(satisfy_body(body, self.db(), initial={X: "a"}))
        assert {(s[X], s[Y]) for s in results} == {("a", "b")}

    def test_builtin_filter_after_binding(self):
        body = [lit("num", "X"), lit("num", "Y"), lit("<", "X", "Y")]
        results = list(satisfy_body(body, self.db()))
        assert {(s[X], s[Y]) for s in results} == {(1, 2), (1, 3), (2, 3)}

    def test_builtin_before_binding_is_deferred(self):
        body = [lit("<", "X", "Y"), lit("num", "X"), lit("num", "Y")]
        results = list(satisfy_body(body, self.db()))
        assert {(s[X], s[Y]) for s in results} == {(1, 2), (1, 3), (2, 3)}

    def test_empty_body_yields_initial(self):
        results = list(satisfy_body([], self.db(), initial={X: "a"}))
        assert results == [{X: "a"}]

    def test_no_match_yields_nothing(self):
        assert list(satisfy_body([lit("up", "z", "Y")], self.db())) == []


class TestRenameApart:
    def test_variables_renamed_consistently(self):
        r = Rule(lit("p", "X", "Z"), [lit("q", "X", "Y"), lit("r", "Y", "Z")])
        renamed = rename_apart(r, "_1")
        assert renamed.head == lit("p", "X_1", "Z_1")
        assert renamed.body == (lit("q", "X_1", "Y_1"), lit("r", "Y_1", "Z_1"))

    def test_constants_untouched(self):
        r = Rule(lit("p", "X", "a"), [lit("q", "X", "a")])
        renamed = rename_apart(r, "_7")
        assert renamed.head == lit("p", "X_7", "a")
