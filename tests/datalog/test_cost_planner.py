"""Cost-based join ordering: orders, cache keys, events."""

import pytest

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.diagnostics import CODES, Diagnostic
from repro.datalog.literals import Literal
from repro.datalog.plans import (
    body_plan,
    compile_plan,
    drain_planner_events,
    estimated_body_cost,
    record_planner_event,
    rule_plan,
)
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.stats import PlanStatistics


def lit(pred, *args):
    return Literal(pred, list(args))


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def skewed_db():
    """big is 40 rows, small indexes down to 1 row, filt keeps one key."""
    big = [(f"x{i}", f"y{i % 8}") for i in range(40)]
    small = [(f"y{i}", f"z{i}") for i in range(8)]
    filt = [("y3",)]
    return Database.from_dict({"big": big, "small": small, "filt": filt})


@pytest.fixture(autouse=True)
def _drain_events():
    drain_planner_events()
    yield
    drain_planner_events()


class TestCostOrdering:
    BODY = [lit("big", "X", "Y"), lit("small", "Y", "Z"), lit("filt", "Y")]

    def test_legacy_keeps_textual_order(self):
        plan = body_plan(self.BODY)
        assert [s.predicate for s in self.BODY[:1]] == ["big"]
        assert plan.scan_literals[0] == lit("big", "X", "Y")
        assert plan.estimates is None

    def test_cost_mode_starts_from_the_selective_scan(self):
        database = skewed_db()
        with configured(plan="cost"):
            plan = body_plan(self.BODY, database=database)
        assert plan.scan_literals[0] == lit("filt", "Y")
        assert plan.estimates is not None
        # Later steps are index probes, not full scans.
        assert plan.estimates[0].access == "full-scan"
        assert all("index[" in e.access for e in plan.estimates[1:])

    def test_cost_and_legacy_answers_agree(self):
        database = skewed_db()
        legacy = body_plan(self.BODY)
        with configured(plan="cost"):
            cost = body_plan(self.BODY, database=database)
        assert cost is not legacy

        def key(s):
            return (s[X], s[Y], s[Z])

        assert sorted(map(key, legacy.substitutions(database))) == sorted(
            map(key, cost.substitutions(database))
        )

    def test_cost_mode_without_database_is_byte_for_byte_legacy(self):
        legacy = body_plan(self.BODY)
        with configured(plan="cost"):
            assert body_plan(self.BODY) is legacy

    def test_cache_isolated_between_modes(self):
        database = skewed_db()
        legacy = body_plan(self.BODY)
        with configured(plan="cost"):
            cost = body_plan(self.BODY, database=database)
            assert body_plan(self.BODY, database=database) is cost
        assert body_plan(self.BODY) is legacy

    def test_same_magnitude_growth_reuses_the_cost_plan(self):
        database = skewed_db()
        with configured(plan="cost"):
            first = body_plan(self.BODY, database=database)
            database.add_fact("big", ("extra", "y0"))  # 40 -> 41 rows
            assert body_plan(self.BODY, database=database) is first

    def test_dp_and_greedy_agree_on_chain(self):
        # Ten literals forces the greedy-with-lookahead path; a chain has an
        # unambiguous best order so both searches must find it.
        body = [lit("e", f"V{i}", f"V{i + 1}") for i in range(10)]
        body.reverse()
        database = Database.from_dict({"e": [(i, i + 1) for i in range(30)]})
        with configured(plan="cost"):
            plan = body_plan(
                body, bound_vars=frozenset({Variable("V0")}), database=database
            )
        assert plan.scan_literals[0] == lit("e", "V0", "V1")
        assert all("index[" in e.access for e in plan.estimates)


class TestEstimatedBodyCost:
    def test_bound_entry_is_cheaper(self):
        database = skewed_db()
        statistics = PlanStatistics(database)
        body = [lit("big", "X", "Y"), lit("small", "Y", "Z")]
        free = estimated_body_cost(body, statistics)
        bound = estimated_body_cost(body, statistics, bound_vars=frozenset({X}))
        assert 0 < bound < free

    def test_empty_body_costs_nothing(self):
        assert estimated_body_cost([], PlanStatistics(skewed_db())) == 0.0


class TestPlannerEvents:
    def test_record_and_drain_in_order(self):
        for message in ("first", "second"):
            record_planner_event(
                Diagnostic(
                    code="DL601", severity=CODES["DL601"][0], message=message
                )
            )
        events = drain_planner_events()
        assert [event.message for event in events] == ["first", "second"]
        assert events[0].format().startswith("hint[DL601]")
        assert drain_planner_events() == []

    def test_adaptive_replan_emits_dl601(self):
        # A transitive closure over a long chain: the delta shrinks from the
        # full edge relation to a trickle, crossing the replan ratio.
        from repro.datalog.parser import parse_program
        from repro.engines.seminaive import evaluate_seminaive

        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
        )
        database = Database.from_dict(
            {"e": [(i, i + 1) for i in range(60)]}
        )
        with configured(plan="cost"):
            result = evaluate_seminaive(program, database.copy())
            events = drain_planner_events()
        assert any(event.code == "DL601" for event in events)
        assert all("tc" in event.message for event in events)
        legacy = evaluate_seminaive(program, database.copy())
        assert set(result.rows("tc")) == set(legacy.rows("tc"))


class TestRulePlanEstimates:
    def test_rule_plan_carries_estimates_only_in_cost_mode(self):
        database = skewed_db()
        rule = Rule(
            lit("out", "X", "Z"),
            [lit("big", "X", "Y"), lit("small", "Y", "Z")],
        )
        assert rule_plan(rule).estimates is None
        with configured(plan="cost"):
            plan = rule_plan(rule, database=database)
        assert plan.estimates is not None
        assert len(plan.estimates) == 2


class TestCompilePlanStatistics:
    def test_explicit_statistics_orders_without_mode_switch(self):
        database = skewed_db()
        statistics = PlanStatistics(database)
        plan = compile_plan(
            [lit("big", "X", "Y"), lit("filt", "Y")], statistics=statistics
        )
        assert plan.scan_literals[0] == lit("filt", "Y")
