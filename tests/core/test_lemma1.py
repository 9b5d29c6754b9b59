"""Tests for the Lemma 1 transformation (repro.core.lemma1)."""

import pytest

from repro.datalog.database import Database
from repro.datalog.errors import NotApplicableError
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query, least_model
from repro.core.lemma1 import equation_for, transform
from repro.core.planner import evaluate_query
from repro.engines import run_engine
from repro.relalg.expressions import compose, pred, star, union
from repro.relalg.relation import BinaryRelation

B = BinaryRelation

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""

TC_RIGHT = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
"""

TC_LEFT = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
"""

PAPER_SECTION3 = """
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


class TestApplicability:
    def test_nonlinear_program_rejected(self):
        program = parse_program("anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), anc(Z, Y).")
        with pytest.raises(NotApplicableError):
            transform(program)

    def test_non_binary_chain_program_rejected(self):
        program = parse_program("p(X, Y) :- e(Y, X).")
        with pytest.raises(NotApplicableError):
            transform(program)


class TestDirectRecursionElimination:
    def test_right_linear_tc(self):
        # tc = e U e.tc  is right recursion:  tc = e*.e
        assert equation_for(parse_program(TC_RIGHT), "tc") == compose(star(pred("e")), pred("e"))

    def test_left_linear_tc(self):
        # tc = e U tc.e  is left recursion:  tc = e.e*
        assert equation_for(parse_program(TC_LEFT), "tc") == compose(pred("e"), star(pred("e")))

    def test_middle_recursion_left_untouched(self):
        # sg = flat U up.sg.down has no direct left/right recursion to eliminate.
        result = transform(parse_program(SG))
        assert result.system.rhs("sg") == union(
            pred("flat"), compose(pred("up"), pred("sg"), pred("down"))
        )

    def test_purely_recursive_predicate_becomes_empty(self):
        # p is defined only in terms of itself: the least solution is empty.
        program = parse_program("p(X, Z) :- p(X, Y), e(Y, Z). q(X, Y) :- e(X, Y).")
        result = transform(program)
        solution = result.system.solve({"e": B([(1, 2), (2, 3)])})
        assert solution["p"] == set()

    def test_multiple_recursive_branches_grouped(self):
        # p = b U p.c U p.d  ->  p = b.(c U d)*
        program = parse_program(
            """
            p(X, Y) :- b(X, Y).
            p(X, Z) :- p(X, Y), c(Y, Z).
            p(X, Z) :- p(X, Y), d(Y, Z).
            """
        )
        equation = equation_for(program, "p")
        assert equation == compose(pred("b"), star(union(pred("c"), pred("d"))))


class TestStatementsOfLemma1:
    """The seven statements of Lemma 1, checked on the paper's example program."""

    @pytest.fixture(scope="class")
    def result(self):
        return transform(parse_program(PAPER_SECTION3))

    def test_statement1_one_equation_per_derived_predicate(self, result):
        assert result.system.derived_predicates == {
            "p1", "p2", "p3", "q1", "q2", "r1", "r2",
        }

    def test_statement2_arguments_are_program_predicates(self, result):
        program_predicates = {"a", "b", "c", "d", "e", "p1", "p2", "p3", "q1", "q2", "r1", "r2"}
        for predicate in result.system.derived_predicates:
            assert result.system.predicates_in_rhs(predicate) <= program_predicates

    def test_statement3_no_regular_derived_predicates_in_rhs(self, result):
        # p1, p2, p3 (right-linear) and r1, r2 (left-linear) are regular and
        # must not occur in any right-hand side.
        regular = {"p1", "p2", "p3", "r1", "r2"}
        for predicate in result.system.derived_predicates:
            assert not (result.system.predicates_in_rhs(predicate) & regular), predicate

    def test_statement4_regular_predicates_have_no_mutually_recursive_arguments(self, result):
        for predicate in ("p1", "p2", "p3", "r1", "r2"):
            mutual = result.original_mutual_sets[predicate]
            assert not (result.system.predicates_in_rhs(predicate) & mutual), predicate

    def test_statement6_at_most_one_recursive_occurrence(self, result):
        for predicate in result.system.derived_predicates:
            mutual = result.original_mutual_sets[predicate]
            occurrences = result.system.rhs(predicate).occurrence_count(mutual)
            assert occurrences <= 1, predicate

    def test_statement7_solution_matches_program_semantics(self, result):
        database = Database.from_dict(
            {
                "a": [(1, 2), (2, 6), (6, 3)],
                "b": [(2, 4), (3, 4), (6, 1)],
                "c": [(4, 1), (4, 5)],
                "d": [(5, 2), (1, 6)],
                "e": [(1, 5), (5, 3)],
            }
        )
        program = parse_program(PAPER_SECTION3)
        solution = result.system.solve_database(database)
        model = least_model(program, database)
        for predicate in result.system.derived_predicates:
            assert solution[predicate].pairs == frozenset(model.rows(predicate)), predicate

    def test_only_q2_remains_recursive(self, result):
        # After the transformation, q2 is the only predicate whose equation
        # still mentions a predicate mutually recursive to it (the paper's
        # final system has q2 = r2 U a.q2.r1 with r1, r2 expanded).
        for predicate in result.system.derived_predicates:
            if predicate == "q2":
                assert result.system.rhs(predicate).occurrence_count({"q2"}) == 1
            else:
                assert result.system.rhs(predicate).occurrence_count({predicate}) == 0

    def test_regular_predicate_equations_contain_only_base_and_nonregular(self, result):
        # For this program the only nonregular predicates are q1 and q2.
        allowed = {"a", "b", "c", "d", "e", "q1", "q2"}
        for predicate in ("p1", "p2", "p3", "r1", "r2"):
            assert result.system.predicates_in_rhs(predicate) <= allowed


class TestSemanticEquivalence:
    """Statement (7) on further programs: solve the final system and compare."""

    @pytest.mark.parametrize(
        "text,facts",
        [
            (TC_RIGHT, {"e": [(1, 2), (2, 3), (3, 4), (2, 5)]}),
            (TC_LEFT, {"e": [(1, 2), (2, 3), (3, 1)]}),
            (SG, {
                "up": [("a", "b"), ("b", "c"), ("x", "b")],
                "flat": [("c", "c"), ("b", "d")],
                "down": [("c", "e"), ("e", "f"), ("d", "g")],
            }),
            (
                """
                p(X, Y) :- q(X, Y).
                q(X, Z) :- e(X, Y), p(Y, Z).
                q(X, Y) :- f(X, Y).
                """,
                {"e": [(1, 2), (2, 1), (2, 3)], "f": [(2, 3), (3, 4)]},
            ),
            (
                """
                odd(X, Y) :- e(X, Y).
                odd(X, Z) :- e(X, Y), even(Y, Z).
                even(X, Z) :- e(X, Y), odd(Y, Z).
                """,
                {"e": [(1, 2), (2, 3), (3, 4), (4, 5)]},
            ),
        ],
        ids=["tc-right", "tc-left", "same-generation", "mutual-pq", "odd-even"],
    )
    def test_solution_equals_least_model(self, text, facts):
        program = parse_program(text)
        database = Database.from_dict(facts)
        result = transform(program)
        solution = result.system.solve_database(database)
        model = least_model(program, database)
        for predicate in program.derived_predicates:
            assert solution[predicate].pairs == frozenset(model.rows(predicate)), predicate

    def test_regular_program_equations_contain_only_base_predicates(self):
        # Statement (5): for a regular program every RHS has only base arguments.
        program = parse_program(TC_RIGHT + TC_LEFT.replace("tc", "lc"))
        result = transform(program)
        for predicate in result.system.derived_predicates:
            assert not (
                result.system.predicates_in_rhs(predicate)
                & result.system.derived_predicates
            ), predicate

    def test_is_regular_equation_helper(self):
        result = transform(parse_program(SG))
        assert not result.is_regular_equation("sg")
        assert result.derived_predicates_in("sg") == {"sg"}
        regular = transform(parse_program(TC_RIGHT))
        assert regular.is_regular_equation("tc")


class TestMemo:
    """transform() runs once per program instance and hands every caller the
    same result, which no caller may mutate."""

    SG_FACTS = SG + """
        up(a, b). up(b, c). up(c, a).
        flat(a, d). flat(c, e).
        down(d, e). down(e, f). down(f, d).
    """

    def test_every_binding_pattern_leaves_the_memo_unchanged(self):
        program = parse_program(self.SG_FACTS)
        result = transform(program)
        equations = dict(result.system.equations)
        initial = dict(result.initial_system.equations)
        queries = ["sg(a, Y)", "sg(X, f)", "sg(a, f)", "sg(X, Y)", "sg(X, X)"]
        for text in queries:
            query = parse_literal(text)
            answer = evaluate_query(program, query, strategy="graph")
            assert answer.details["lemma1"] is result
            assert answer.answers == answer_query(program, query)
        for engine in ("counting", "reverse-counting", "henschen-naqvi"):
            query = parse_literal("sg(a, Y)")
            assert run_engine(engine, program, query).answers == answer_query(program, query)
        assert transform(program) is result
        assert dict(result.system.equations) == equations
        assert dict(result.initial_system.equations) == initial

    def test_separately_parsed_copies_do_not_share_a_memo(self):
        first = transform(parse_program(SG))
        second = transform(parse_program(SG))
        assert first is not second
        assert first.system.equations == second.system.equations

    def test_applicability_checks_run_on_every_call(self):
        program = parse_program("anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), anc(Z, Y).")
        for _ in range(2):
            with pytest.raises(NotApplicableError):
                transform(program)
