"""Unit tests for repro.datalog.parser."""

import pytest

from repro.datalog.errors import DatalogSyntaxError
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program, parse_query, parse_rules, tokenize
from repro.datalog.terms import Constant, Variable


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("p(X, a) :- q(X).")]
        assert kinds == [
            "IDENT", "LPAREN", "IDENT", "COMMA", "IDENT", "RPAREN",
            "IMPLIES", "IDENT", "LPAREN", "IDENT", "RPAREN", "PERIOD",
        ]

    def test_comments_skipped(self):
        tokens = tokenize("% a comment\np(a). # another\n// and a third\n")
        assert [t.text for t in tokens] == ["p", "(", "a", ")", "."]

    def test_line_numbers(self):
        tokens = tokenize("p(a).\nq(b).")
        assert tokens[0].line == 1
        assert tokens[-1].line == 2

    def test_unknown_character_raises(self):
        with pytest.raises(DatalogSyntaxError):
            tokenize("p(a) @ q(b).")


class TestLiteralParsing:
    def test_variables_and_constants(self):
        lit = parse_literal("up(X, john)")
        assert lit == Literal("up", [Variable("X"), Constant("john")])

    def test_numbers(self):
        lit = parse_literal("flight(hel, 10, par, -5)")
        assert lit.constant_values() == ("hel", 10, "par", -5)

    def test_quoted_strings(self):
        lit = parse_literal("city('New York', \"USA\")")
        assert lit.constant_values() == ("New York", "USA")

    def test_comparison_literal(self):
        lit = parse_literal("X < Y")
        assert lit.predicate == "<"
        assert lit.is_builtin

    def test_query_with_trailing_period(self):
        assert parse_query("sg(john, Y).") == Literal("sg", [Constant("john"), Variable("Y")])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_literal("p(X) q(Y)")


class TestAtomComparisonOperands:
    """A comparison whose operand is an atom is a spanned syntax error,
    never a silently dropped comparison."""

    @pytest.mark.parametrize(
        "parse,text,span",
        [
            (parse_program, "r(X) :- a(X), X < q(Y).", (1, 19, 1, 23)),
            (parse_literal, "X < q(Y)", (1, 5, 1, 9)),
            (parse_program, "r(X) :- a(X), p(X) < 3.", (1, 15, 1, 19)),
        ],
        ids=["right-operand", "query", "left-operand"],
    )
    def test_atom_operand_rejected(self, parse, text, span):
        with pytest.raises(DatalogSyntaxError, match="is an atom, not a term") as info:
            parse(text)
        error_span = info.value.span
        assert (
            error_span.line,
            error_span.column,
            error_span.end_line,
            error_span.end_column,
        ) == span


class TestZeroArityAtoms:
    """Only a bare identifier forms a zero-argument atom; a number or a
    quoted string in literal position is a spanned syntax error."""

    def test_bare_identifier_is_a_zero_arity_fact(self):
        program = parse_program("halt.")
        assert [str(rule) for rule in program.rules] == ["halt()."]
        assert parse_query("halt") == Literal("halt", [])

    @pytest.mark.parametrize(
        "parse,text,column",
        [
            (parse_program, "p(X) :- q(X), not ''(X).", 19),
            (parse_query, "''", 1),
            (parse_program, "42.", 1),
            (parse_program, "'a b'.", 1),
            (parse_program, 'p(X) :- q(X), "r"(X).', 15),
        ],
        ids=["negated-empty-quote", "empty-quote-query", "number", "quoted", "quoted-atom"],
    )
    def test_constant_in_literal_position_rejected(self, parse, text, column):
        with pytest.raises(DatalogSyntaxError, match="expected a literal") as info:
            parse(text)
        assert info.value.span is not None
        assert (info.value.span.line, info.value.span.column) == (1, column)


class TestProgramParsing:
    SG = """
        % the same-generation program
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
        up(a, b).
        flat(b, b).
        down(b, c).
    """

    def test_rule_and_fact_counts(self):
        program = parse_program(self.SG)
        assert len(program.idb_rules()) == 2
        assert len(program.edb_facts()) == 3

    def test_predicate_classification(self):
        program = parse_program(self.SG)
        assert program.derived_predicates == {"sg"}
        assert program.base_predicates == {"flat", "up", "down"}

    def test_round_trip_through_str(self):
        program = parse_program(self.SG)
        reparsed = parse_program(str(program))
        assert reparsed == program

    def test_builtins_in_rule_bodies(self):
        program = parse_program(
            """
            cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
            cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1,
                                 is_deptime(DT1), cnx(D1, DT1, D, AT).
            flight(hel, 1, par, 3).
            is_deptime(5).
            """
        )
        recursive = program.rules_for("cnx")[1]
        assert recursive.builtin_body() == (Literal("<", [Variable("AT1"), Variable("DT1")]),)

    def test_missing_period_raises(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program("p(a) q(b).")

    def test_builtin_head_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program("X < Y :- p(X, Y).")

    def test_parse_rules_does_not_validate(self):
        # parse_rules returns raw rules even when the program would be invalid.
        rules = parse_rules("p(X, Y) :- q(X).")
        assert len(rules) == 1

    def test_empty_program(self):
        assert len(parse_program("")) == 0

    def test_paper_section3_example_parses(self):
        text = """
            p1(X, Z) :- b(X, Y), p2(Y, Z).
            p1(X, Z) :- q1(X, Y), p3(Y, Z).
            p2(X, Z) :- c(X, Y), p1(Y, Z).
            p2(X, Z) :- d(X, Y), p3(Y, Z).
            p3(X, Y) :- a(X, Y).
            p3(X, Z) :- e(X, Y), p2(Y, Z).
            q1(X, Z) :- a(X, Y), q2(Y, Z).
            q2(X, Y) :- r2(X, Y).
            q2(X, Z) :- q1(X, Y), r1(Y, Z).
            r1(X, Y) :- b(X, Y).
            r1(X, Y) :- r2(X, Y).
            r2(X, Z) :- r1(X, Y), c(Y, Z).
        """
        program = parse_program(text)
        assert program.derived_predicates == {"p1", "p2", "p3", "q1", "q2", "r1", "r2"}
        assert program.base_predicates == {"a", "b", "c", "d", "e"}


class TestStringEscapes:
    """Escape sequences in quoted strings and their printed round trip."""

    def test_escaped_double_quote(self):
        program = parse_program('p("it\\"s").')
        assert program.rules[0].head.args[0] == Constant('it"s')

    def test_escaped_single_quote(self):
        (rule,) = parse_rules("p('don\\'t').")
        assert rule.head.args[0] == Constant("don't")

    def test_escaped_backslash(self):
        (rule,) = parse_rules('p("a\\\\b").')
        assert rule.head.args[0] == Constant("a\\b")

    def test_control_escapes(self):
        (rule,) = parse_rules('p("a\\nb\\tc\\rd").')
        assert rule.head.args[0] == Constant("a\nb\tc\rd")

    def test_unknown_escape_is_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_rules('p("a\\qb").')

    def test_both_quote_characters_in_one_string(self):
        value = "he said \"hi\" and didn't leave"
        (rule,) = parse_rules(f"p({Constant(value)}).")
        assert rule.head.args[0] == Constant(value)

    def test_printer_emits_reparseable_quoting(self):
        for value in ('it"s', "don't", 'mix "of\' both', "back\\slash", "n\nl"):
            literal = Literal("p", [Constant(value)])
            assert parse_literal(str(literal)) == literal

    def test_plain_strings_are_unaffected(self):
        (rule,) = parse_rules("p('plain', \"also plain\").")
        assert rule.head.args[0] == Constant("plain")
        assert rule.head.args[1] == Constant("also plain")
