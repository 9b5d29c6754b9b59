"""Tests for the end-to-end planner (repro.core.planner and repro.evaluate_query)."""

import pytest

from repro import evaluate_query
from repro.core.cyclic import decompose_linear
from repro.core.lemma1 import transform
from repro.core.planner import _auto_iteration_bound
from repro.core.planner import evaluate_query as planner_evaluate
from repro.datalog.database import Database
from repro.datalog.errors import NotApplicableError
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.engines import get_engine
from repro.relalg.expressions import Compose
from repro.workloads import random_genealogy, sample_a, sample_b, sample_c, sample_cyclic

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    up(a, b). up(b, c).
    flat(c, c). flat(b, d).
    down(c, e). down(e, f). down(d, g).
"""

FLIGHT = """
    cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
    cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1,
                         is_deptime(DT1), cnx(D1, DT1, D, AT).
    flight(hel, 1, par, 3). flight(par, 5, nyc, 9). flight(par, 2, rom, 4).
    is_deptime(5). is_deptime(2).
"""

NONLINEAR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), anc(Z, Y).
    par(1, 2). par(2, 3). par(3, 4).
"""


class TestStrategySelection:
    def test_binary_chain_program_uses_graph_traversal(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"))
        assert answer.strategy == "graph-traversal"

    def test_nary_linear_program_uses_chain_transform(self):
        answer = planner_evaluate(parse_program(FLIGHT), parse_literal("cnx(hel, 1, D, AT)"))
        assert answer.strategy == "chain-transform"

    def test_nonlinear_program_falls_back_to_bottom_up(self):
        answer = planner_evaluate(parse_program(NONLINEAR), parse_literal("anc(1, Y)"))
        assert answer.strategy == "bottom-up"

    def test_base_predicate_answered_directly(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("up(a, Y)"))
        assert answer.strategy == "base"
        assert answer.answers == {("b",)}

    def test_non_chain_adornment_falls_back(self):
        program = parse_program(
            """
            p(X, Y) :- b0(X, Y).
            p(X, Y) :- b1(X, Y), p(Y, Z).
            b1(a, b). b0(b, c).
            """
        )
        answer = planner_evaluate(program, parse_literal("p(a, Y)"))
        assert answer.strategy == "bottom-up"
        assert answer.answers == {("b",)}

    def test_forced_strategy_raises_when_not_applicable(self):
        with pytest.raises(NotApplicableError):
            planner_evaluate(
                parse_program(NONLINEAR), parse_literal("anc(1, Y)"), strategy="graph"
            )
        with pytest.raises(NotApplicableError):
            planner_evaluate(
                parse_program(NONLINEAR), parse_literal("anc(1, Y)"), strategy="chain"
            )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"), strategy="magic")

    def test_forced_bottom_up(self):
        answer = planner_evaluate(
            parse_program(SG), parse_literal("sg(a, Y)"), strategy="bottom-up"
        )
        assert answer.strategy == "bottom-up"
        assert answer.answers == {("f",), ("g",)}

    def test_bottom_up_fallback_charges_what_seminaive_charges(self):
        program = parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), tc(Y, Z).")
        database = Database.from_dict({"e": [(i, i + 1) for i in range(20)]})
        query = parse_literal("tc(0, Y)")
        graph = get_engine("graph").answer(program, query, database)
        seminaive = get_engine("seminaive").answer(program, query, database)
        assert graph.details["strategy"] == "bottom-up"
        assert graph.answers == seminaive.answers
        assert graph.counters.as_dict() == seminaive.counters.as_dict()
        assert graph.counters.fact_retrievals == 1535
        assert graph.iterations == seminaive.iterations == 4


class TestAnswerCorrectness:
    @pytest.mark.parametrize(
        "program_text,query_text",
        [
            (SG, "sg(a, Y)"),
            (SG, "sg(X, f)"),
            (SG, "sg(X, Y)"),
            (SG, "sg(a, f)"),
            (SG, "sg(a, e)"),
            (SG, "sg(X, X)"),
            (FLIGHT, "cnx(hel, 1, D, AT)"),
            (FLIGHT, "cnx(par, 2, D, AT)"),
            (FLIGHT, "cnx(hel, 1, nyc, AT)"),
            (NONLINEAR, "anc(1, Y)"),
            (NONLINEAR, "anc(X, 4)"),
        ],
    )
    def test_agreement_with_least_model(self, program_text, query_text):
        program = parse_program(program_text)
        query = parse_literal(query_text)
        answer = planner_evaluate(program, query)
        assert answer.answers == answer_query(program, query)

    def test_external_database_merged_with_program_facts(self):
        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z). e(1, 2)."
        )
        extra = Database.from_dict({"e": [(2, 3)]})
        answer = planner_evaluate(program, parse_literal("tc(1, Y)"), database=extra)
        assert answer.answers == {(2,), (3,)}

    def test_cyclic_data_terminates_with_complete_answers(self):
        cyclic = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            up(a1, a2). up(a2, a3). up(a3, a1).
            flat(a1, b1).
            down(b1, b2). down(b2, b3). down(b3, b4). down(b4, b1).
            """
        )
        query = parse_literal("sg(a1, Y)")
        answer = planner_evaluate(cyclic, query)
        assert answer.strategy == "graph-traversal"
        assert answer.answers == answer_query(cyclic, query)

    def test_empty_answer_for_unreachable_constant(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(zzz, Y)"))
        assert answer.answers == set()


# p = a ∪ b·p·c ∪ d·p·e is not of the p = e0 ∪ e1·p·e2 form, so the planner
# bounds it coarsely and stops on the stall heuristic; b and c are cycles.
TWO_RECURSIVE_TERMS = """
    p(X, Y) :- a(X, Y).
    p(X, Y) :- b(X, Z), p(Z, W), c(W, Y).
    p(X, Y) :- d(X, Z), p(Z, W), e(W, Y).
    a(x0, y0).
    b(x0, x1). b(x1, x0).
    c(y0, y1). c(y1, y2). c(y2, y0).
    d(x0, x1). e(y2, w0). e(w0, w1).
"""

# Lemma 1 gives q = c·a·e ∪ c·b·q·e: the left side e1 = c·b is a composition,
# so its accessible nodes are counted in relational algebra; b, c and e hold
# cycles.
COMPOSITE_LEFT_SIDE = """
    p(X, Y) :- a(X, Y).
    p(X, Y) :- b(X, Z), q(Z, Y).
    q(X, Y) :- c(X, Z), p(Z, W), e(W, Y).
    a(x1, y0). a(x0, y2).
    b(x1, x2). b(x2, x1). b(x0, x0).
    c(x0, x1). c(x1, x0). c(x2, x0).
    e(y0, y1). e(y1, y2). e(y2, y0).
"""


class TestAutomaticIterationBound:
    @pytest.mark.parametrize(
        "workload,bound",
        [
            (sample_a(200), 402),
            (sample_b(120), 14_400),
            (sample_c(200), 40_000),
            (sample_cyclic(7, 11), 77),
            (random_genealogy(240, 6), 53_361),
            (random_genealogy(800, 8), 599_076),
        ],
        ids=["fig7a-200", "fig7b-120", "fig7c-200", "fig8-7x11", "gen-240x6", "gen-800x8"],
    )
    def test_linear_form_bound_is_pinned(self, workload, bound):
        program, database, query = workload
        system = transform(program).system
        assert _auto_iteration_bound(system, database, query.predicate) == (bound, None)

    def test_stall_fallback_outside_the_linear_form(self):
        program = parse_program(TWO_RECURSIVE_TERMS)
        query = parse_literal("p(x0, Y)")
        system = transform(program).system
        bound, stall = _auto_iteration_bound(
            system, Database.from_program(program), "p"
        )
        assert (bound, stall) == (81, 9)
        answer = planner_evaluate(program, query)
        assert answer.strategy == "graph-traversal"
        assert answer.answers == answer_query(program, query)
        assert answer.answers == {("y0",), ("y1",), ("y2",), ("w0",)}
        assert answer.iterations == 16
        assert answer.counters.as_dict() == {
            "fact_retrievals": 1969,
            "distinct_facts": 8,
            "rule_firings": 0,
            "derived_tuples": 0,
            "nodes_generated": 8795,
            "iterations": 16,
            "total_work": 10764,
        }

    def test_composite_left_side(self):
        program = parse_program(COMPOSITE_LEFT_SIDE)
        query = parse_literal("q(x0, Y)")
        system = transform(program).system
        assert isinstance(decompose_linear(system, "q").left, Compose)
        answer = planner_evaluate(program, query)
        assert answer.strategy == "graph-traversal"
        assert answer.answers == answer_query(program, query)
        assert answer.answers == {("y0",), ("y1",), ("y2",)}
        assert answer.iterations == 9
        assert answer.counters.as_dict() == {
            "fact_retrievals": 65,
            "distinct_facts": 9,
            "rule_firings": 0,
            "derived_tuples": 0,
            "nodes_generated": 191,
            "iterations": 9,
            "total_work": 256,
        }


class TestQueryAnswerAPI:
    def test_values_and_iteration_helpers(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"))
        assert answer.values() == {"f", "g"}
        assert set(answer) == {("f",), ("g",)}
        assert len(answer) == 2
        assert answer.iterations >= 1
        assert answer.counters.nodes_generated > 0

    def test_details_expose_the_equation_system(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"))
        assert "equation_system" in answer.details

    def test_top_level_convenience_wrapper(self):
        program = parse_program(SG)
        answer = evaluate_query(program, parse_literal("sg(a, Y)"))
        assert answer.values() == {"f", "g"}

    def test_counters_can_be_supplied(self):
        from repro.instrumentation import Counters

        counters = Counters()
        planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"), counters=counters)
        assert counters.nodes_generated > 0
        assert counters.fact_retrievals > 0
