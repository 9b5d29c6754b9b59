"""Cost-based strategy selection: estimates and the session's 2x margin."""

from repro.config import configured
from repro.core.planner import estimate_strategy_costs
from repro.datalog.database import Database
from repro.datalog.parser import parse_literal, parse_program
from repro.session import select_engine

TC = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
"""


def tc_database(n=30):
    return Database.from_dict({"e": [(i, i + 1) for i in range(n)]})


class TestEstimateStrategyCosts:
    def test_all_strategies_costed(self):
        program = parse_program(TC)
        costs = estimate_strategy_costs(
            program, parse_literal("tc(0, Y)"), tc_database()
        )
        assert set(costs) >= {"seminaive", "graph", "magic"}
        assert all(value > 0 for value in costs.values())

    def test_bound_query_discounts_demand_strategies(self):
        program = parse_program(TC)
        database = tc_database()
        bound = estimate_strategy_costs(program, parse_literal("tc(0, Y)"), database)
        free = estimate_strategy_costs(program, parse_literal("tc(X, Y)"), database)
        # Demand fraction only applies when the query binds an argument.
        assert bound["graph"] < bound["seminaive"]
        assert free["graph"] == free["seminaive"]
        # Magic pays its rewrite overhead relative to graph traversal.
        assert bound["magic"] > bound["graph"]

    def test_base_query_reports_relation_size(self):
        program = parse_program(TC)
        costs = estimate_strategy_costs(
            program, parse_literal("e(0, Y)"), tc_database(7)
        )
        assert costs["base"] == 7.0


class TestSelectEngineCostMode:
    def test_legacy_choice_is_untouched_without_cost_mode(self):
        program = parse_program(TC)
        database = tc_database()
        assert (
            select_engine(program, parse_literal("tc(0, Y)"), database=database)
            == "graph"
        )
        assert (
            select_engine(program, parse_literal("tc(X, Y)"), database=database)
            == "seminaive"
        )

    def test_cost_mode_keeps_the_static_pick_when_competitive(self):
        # Graph traversal is the cheapest estimate for a bound chain query,
        # so consulting the statistics must not flap the choice.
        program = parse_program(TC)
        with configured(plan="cost"):
            choice = select_engine(
                program, parse_literal("tc(0, Y)"), database=tc_database()
            )
        assert choice == "graph"

    def test_cost_mode_without_database_falls_back_to_static(self):
        program = parse_program(TC)
        with configured(plan="cost"):
            assert select_engine(program, parse_literal("tc(0, Y)")) == "graph"
