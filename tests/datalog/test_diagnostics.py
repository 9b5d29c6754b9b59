"""The lint fixture corpus: per check one trigger and one near-miss.

Every trigger asserts the stable code AND the exact ``line:column`` span;
every near-miss asserts the same check stays silent on the closest clean
variant.  A last test pins that a stratification cycle raises when the
session is built, not mid-answer.
"""

import pytest

from repro.datalog.analysis import Stratification
from repro.datalog.database import Database
from repro.datalog.diagnostics import (
    Severity,
    chain_feasibility,
    check_program,
    lint_program,
    lint_rules,
    lint_source,
)
from repro.datalog.errors import (
    DatalogSyntaxError,
    ProgramValidationError,
    StratificationError,
    UnsafeRuleError,
)
from repro.datalog.parser import parse_program, parse_query, parse_rules
from repro.session import QuerySession


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    matching = [d for d in diagnostics if d.code == code]
    assert matching, f"expected a {code}, got {codes(diagnostics)}"
    assert len(matching) == 1, f"expected one {code}, got {codes(diagnostics)}"
    return matching[0]


def none_of(diagnostics, code):
    assert code not in codes(diagnostics)


def at(diagnostic, line, column):
    assert diagnostic.span is not None, f"{diagnostic.code} has no span"
    assert (diagnostic.span.line, diagnostic.span.column) == (line, column), (
        f"{diagnostic.code} at {diagnostic.span.start}, "
        f"expected {line}:{column}"
    )


class TestSyntaxDiagnostics:
    def test_dl101_trigger_carries_position(self):
        diagnostics = lint_source("p(X :- q(X).")
        diagnostic = only(diagnostics, "DL101")
        assert diagnostic.severity is Severity.ERROR
        at(diagnostic, 1, 5)

    def test_dl101_near_miss(self):
        none_of(lint_source("p(X) :- q(X).", known_predicates={"q"}), "DL101")

    def test_eof_error_reports_one_past_last_token(self):
        with pytest.raises(DatalogSyntaxError) as excinfo:
            parse_rules("p(a).\nq(X) :- p(X)")
        assert "found end of input at 2:13" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (2, 13)


class TestSafetyDiagnostics:
    def test_dl201_names_the_variable_and_position(self):
        diagnostics = lint_source("p(X, Y) :- q(X).", known_predicates={"q"})
        diagnostic = only(diagnostics, "DL201")
        assert "'Y'" in diagnostic.message and "position 2" in diagnostic.message
        at(diagnostic, 1, 6)

    def test_dl201_near_miss(self):
        clean = lint_source("p(X, Y) :- q(X), r(Y).", known_predicates={"q", "r"})
        none_of(clean, "DL201")

    def test_dl202_never_ground_builtin(self):
        diagnostics = lint_source("p(X) :- q(X), Z < 3.", known_predicates={"q"})
        diagnostic = only(diagnostics, "DL202")
        assert "'Z'" in diagnostic.message
        at(diagnostic, 1, 15)

    def test_dl202_near_miss(self):
        clean = lint_source("p(X) :- q(X), X < 3.", known_predicates={"q"})
        none_of(clean, "DL202")

    def test_dl203_unsafe_negation(self):
        diagnostics = lint_source(
            "p(X) :- q(X), not r(X, Y).", known_predicates={"q", "r"}
        )
        diagnostic = only(diagnostics, "DL203")
        assert "'Y'" in diagnostic.message
        at(diagnostic, 1, 24)

    def test_dl203_near_miss_anonymous_is_exempt(self):
        clean = lint_source(
            "p(X) :- q(X), not r(X, _).", known_predicates={"q", "r"}
        )
        none_of(clean, "DL203")

    def test_dl203_unsafe_aggregate_variable(self):
        diagnostics = lint_rules(parse_rules("t(X, sum(V)) :- q(X)."))
        diagnostic = only(diagnostics, "DL203")
        assert "'V'" in diagnostic.message

    def test_dl206_non_ground_fact(self):
        diagnostics = lint_source("p(X).")
        diagnostic = only(diagnostics, "DL206")
        at(diagnostic, 1, 3)

    def test_dl206_near_miss(self):
        none_of(lint_source("p(a)."), "DL206")


class TestStructuralDiagnostics:
    def test_dl204_arity_clash_points_at_second_use(self):
        diagnostics = lint_source(
            "p(X) :- q(X).\np(X, Y) :- q(X), q(Y).", known_predicates={"q"}
        )
        diagnostic = only(diagnostics, "DL204")
        at(diagnostic, 2, 1)
        assert diagnostic.related and diagnostic.related[0].span.line == 1

    def test_dl204_near_miss(self):
        clean = lint_source(
            "p(X) :- q(X).\nr(X, Y) :- q(X), q(Y).", known_predicates={"q"}
        )
        none_of(clean, "DL204")

    def test_dl205_base_derived_overlap(self):
        diagnostics = lint_source("p(a).\np(X) :- q(X).", known_predicates={"q"})
        diagnostic = only(diagnostics, "DL205")
        at(diagnostic, 1, 1)

    def test_dl205_near_miss(self):
        clean = lint_source("p0(a).\np(X) :- p0(X).")
        none_of(clean, "DL205")

    def test_dl301_cycle_witness_span_chain(self):
        diagnostics = lint_source(
            "odd(X) :- item(X), not even(X).\n"
            "even(X) :- item(X), not odd(X).",
            known_predicates={"item"},
        )
        diagnostic = only(diagnostics, "DL301")
        assert diagnostic.severity is Severity.ERROR
        # the witness chain walks the whole cycle, one related span per arc
        assert len(diagnostic.related) == 2
        assert all(r.span is not None for r in diagnostic.related)

    def test_dl301_near_miss_stratified_negation(self):
        clean = lint_source(
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
            "un(X, Y) :- node(X), node(Y), not tc(X, Y).",
            known_predicates={"edge", "node"},
        )
        none_of(clean, "DL301")


class TestHygieneDiagnostics:
    def test_dl401_undefined_predicate(self):
        diagnostics = lint_source("p(X) :- q(X).")
        diagnostic = only(diagnostics, "DL401")
        assert "'q'" in diagnostic.message
        at(diagnostic, 1, 9)

    def test_dl401_near_miss_known_edb(self):
        none_of(lint_source("p(X) :- q(X).", known_predicates={"q"}), "DL401")

    def test_dl402_unreachable_from_query(self):
        diagnostics = lint_source(
            "p(X) :- q(X).\ndead(X) :- q(X).",
            queries=["p(X)"],
            known_predicates={"q"},
        )
        diagnostic = only(diagnostics, "DL402")
        assert "'dead'" in diagnostic.message
        at(diagnostic, 2, 1)

    def test_dl402_near_miss_recursive_root_is_reachable(self):
        clean = lint_source(
            "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).",
            known_predicates={"edge"},
        )
        none_of(clean, "DL402")

    def test_dl403_singleton_variable(self):
        diagnostics = lint_source("p(X) :- q(X, Y).", known_predicates={"q"})
        diagnostic = only(diagnostics, "DL403")
        assert "'Y'" in diagnostic.message
        at(diagnostic, 1, 14)

    def test_dl403_near_miss_wildcard(self):
        none_of(lint_source("p(X) :- q(X, _).", known_predicates={"q"}), "DL403")

    def test_dl404_duplicate_rule(self):
        diagnostics = lint_source(
            "p(X) :- q(X).\np(X) :- q(X).", known_predicates={"q"}
        )
        diagnostic = only(diagnostics, "DL404")
        at(diagnostic, 2, 1)
        assert diagnostic.related[0].span.line == 1

    def test_dl404_near_miss(self):
        clean = lint_source(
            "p(X) :- q(X).\np(X) :- r(X).", known_predicates={"q", "r"}
        )
        none_of(clean, "DL404")

    def test_dl405_subsumed_rule(self):
        diagnostics = lint_source(
            "p(X) :- q(X, _).\np(X) :- q(X, a).", known_predicates={"q"}
        )
        diagnostic = only(diagnostics, "DL405")
        at(diagnostic, 2, 1)

    def test_dl405_near_miss_incomparable_rules(self):
        clean = lint_source(
            "p(X) :- q(X, a).\np(X) :- q(X, b).", known_predicates={"q"}
        )
        none_of(clean, "DL405")

    def test_dl405_alpha_equivalent_pair_flags_only_the_later(self):
        diagnostics = lint_source(
            "p(X) :- q(X, Y), r(Y).\np(A) :- q(A, B), r(B).",
            known_predicates={"q", "r"},
        )
        diagnostic = only(diagnostics, "DL405")
        at(diagnostic, 2, 1)

    def test_dl406_interval_contradiction(self):
        diagnostics = lint_source(
            "p(X) :- q(X), X < 2, X > 5.", known_predicates={"q"}
        )
        diagnostic = only(diagnostics, "DL406")
        assert "'X'" in diagnostic.message

    def test_dl406_near_miss_satisfiable_interval(self):
        clean = lint_source(
            "p(X) :- q(X), X > 2, X < 5.", known_predicates={"q"}
        )
        none_of(clean, "DL406")

    def test_dl406_conflicting_equalities(self):
        diagnostics = lint_source(
            "p(X) :- q(X), X = a, X = b.", known_predicates={"q"}
        )
        only(diagnostics, "DL406")

    def test_dl406_near_miss_interval_split_across_rules(self):
        clean = lint_source(
            "p(X) :- q(X), X < 2.\np(X) :- q(X), X > 5.",
            known_predicates={"q"},
        )
        none_of(clean, "DL406")


class TestBindingModeDiagnostics:
    FLIGHT = """
    cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
    cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1,
                         is_deptime(DT1), cnx(D1, DT1, D, AT).
    """
    SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    """

    def test_chain_feasible_query(self):
        program = parse_program(self.SG)
        feasible, reason = chain_feasibility(program, parse_query("sg(a, Y)"))
        assert feasible and reason == ""

    def test_chain_infeasible_query_names_the_violation(self):
        program = parse_program(self.FLIGHT)
        feasible, reason = chain_feasibility(
            program, parse_query("cnx(sea, DT, D, AT)")
        )
        assert not feasible and "chain condition" in reason

    def test_feasibility_is_memoized_per_binding_pattern(self):
        program = parse_program(self.SG)
        first = chain_feasibility(program, parse_query("sg(a, Y)"))
        again = chain_feasibility(program, parse_query("sg(b, Z)"))
        assert first == again  # same b/f pattern hits the memo

    def test_classify_query_prefilters_infeasible_chain(self):
        from repro.core.planner import classify_query

        program = parse_program(self.FLIGHT)
        assert (
            classify_query(program, parse_query("cnx(sea, DT, D, AT)"))
            == "bottom-up"
        )

    def test_dl501_hint_for_infeasible_query(self):
        program = parse_program(self.FLIGHT)
        diagnostics = lint_program(
            program,
            queries=["cnx(sea, DT, D, AT)"],
            known_predicates={"flight", "is_deptime"},
        )
        hint = only(diagnostics, "DL501")
        assert hint.severity is Severity.HINT
        assert "bottom-up" in hint.message

    def test_dl501_near_miss_feasible_query(self):
        program = parse_program(self.SG)
        diagnostics = lint_program(
            program,
            queries=["sg(a, Y)"],
            known_predicates={"flat", "up", "down"},
        )
        none_of(diagnostics, "DL501")


class TestExceptionDiagnostics:
    def test_unsafe_rule_error_carries_diagnostic(self):
        with pytest.raises(UnsafeRuleError) as excinfo:
            parse_program("lucky(X, Prize) :- person(X).")
        assert str(excinfo.value) == (
            "rule lucky(X, Prize) :- person(X). is unsafe"
        )
        diagnostic = excinfo.value.diagnostic
        assert diagnostic.code == "DL201"
        assert "'Prize'" in diagnostic.message
        at(diagnostic, 1, 10)

    def test_stratification_error_carries_cycle(self):
        with pytest.raises(StratificationError) as excinfo:
            Stratification.of(
                parse_program("win(X) :- move(X, Y), not win(Y).")
            )
        diagnostic = excinfo.value.diagnostic
        assert diagnostic.code == "DL301"
        assert diagnostic.related and diagnostic.related[0].span is not None
        at(diagnostic, 1, 23)

    def test_validation_error_without_diagnostic_synthesizes_one(self):
        with pytest.raises(ProgramValidationError) as excinfo:
            parse_program("p(a, b).\np(a).")
        diagnostic = excinfo.value.diagnostic
        assert diagnostic.code == "DL204"
        assert diagnostic.severity is Severity.ERROR


class TestCheckProgram:
    def test_errors_raise_warnings_return(self):
        program = parse_program(
            "p(X) :- q(X, Extra).\nq(1, 2).\nq(2, 3)."
        )
        warnings = check_program(program)
        assert "DL403" in codes(warnings)
        assert all(d.severity is not Severity.ERROR for d in warnings)

    def test_unstratifiable_raises_at_check_time(self):
        program = parse_program("win(X) :- move(X, Y), not win(Y).")
        with pytest.raises(StratificationError):
            check_program(program)

    def test_database_relations_count_as_defined(self):
        program = parse_program("p(X) :- q(X).")
        database = Database.from_dict({"q": [(1,), (2,)]})
        assert "DL401" not in codes(check_program(program, database=database))
        assert "DL401" in codes(check_program(program))


class TestDiagnosticsDifferential:
    def test_stratified_program_raises_eagerly_not_mid_answer(self):
        program = parse_program("win(X) :- move(X, Y), not win(Y).\n")
        with pytest.raises(StratificationError):
            QuerySession(program)
