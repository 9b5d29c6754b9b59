"""Golden-file coverage for explain(): plan-shape changes must be reviewed.

To refresh after an intentional planner change, run with
``REGEN_EXPLAIN_GOLDEN=1`` and review the diff.
"""

import os
from pathlib import Path

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.plans import drain_planner_events, rule_plan
from repro.instrumentation import Counters
from repro.session import QuerySession

GOLDEN = Path(__file__).parent / "golden"

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""


def sg_session():
    program = parse_program(SG)
    database = Database.from_dict(
        {
            "up": [("a", "b"), ("b", "c"), ("z", "c")],
            "flat": [("c", "c"), ("b", "d")],
            "down": [("c", "e"), ("e", "f"), ("d", "g")],
        }
    )
    return QuerySession(program, database)


def check_golden(name, actual):
    path = GOLDEN / name
    if os.environ.get("REGEN_EXPLAIN_GOLDEN"):
        path.write_text(actual + "\n")
    expected = path.read_text().rstrip("\n")
    assert actual == expected, f"explain() drifted from golden {name}"


class TestExplainGolden:
    def setup_method(self):
        # Planner events are process-global; a cost-mode run elsewhere in
        # the suite would otherwise leak a "planner events:" section into
        # the golden transcript.
        drain_planner_events()

    def test_legacy_transcript(self):
        check_golden("explain_sg_legacy.txt", sg_session().explain("sg(a, Y)"))

    def test_cost_transcript(self):
        with configured(plan="cost"):
            check_golden("explain_sg_cost.txt", sg_session().explain("sg(a, Y)"))


class TestExplainActuals:
    def test_counters_add_observed_cardinalities(self):
        from repro.engines.seminaive import evaluate_seminaive

        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
        )
        database = Database.from_dict({"e": [(i, i + 1) for i in range(10)]})
        counters = Counters()
        database.reset_instrumentation(counters)
        with configured(execution="columnar"):
            evaluate_seminaive(program, database, counters)
        rule = program.idb_rules()[1]
        report = rule_plan(rule).explain(counters)
        assert "actual in=" in report
        assert "batches=" in report

    def test_session_explain_threads_counters_through(self):
        session = sg_session()
        result = session.query("sg(a, Y)")
        report = session.explain("sg(a, Y)", counters=result.counters)
        assert "plan for sg(X, Y)" in report
