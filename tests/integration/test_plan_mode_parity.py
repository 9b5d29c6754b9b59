"""Differential: cost-based plans answer exactly like legacy plans.

Random stratified programs over random databases, evaluated under every
plan mode x execution mode combination.  The cost planner may pick any
join order it likes, so work counters are free to differ -- but the
answer sets must match the legacy columnar run bit for bit.  (Counter
parity *within* legacy mode is pinned elsewhere; asserting it across
plan modes would outlaw the very reorderings the cost planner exists
to make.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program
from repro.datalog.plans import drain_planner_events
from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.instrumentation import Counters

BASE_PREDICATES = ["e", "f"]
CONSTANTS = list(range(5))
EXECUTION_MODES = ("interpreted", "columnar", "row-fallback")
PLAN_MODES = ("legacy", "cost")


def random_database(seed: int, size: int) -> Database:
    rng = random.Random(seed)
    facts = {}
    for name in BASE_PREDICATES:
        rows = {
            (rng.choice(CONSTANTS), rng.choice(CONSTANTS)) for _ in range(size)
        }
        facts[name] = sorted(rows)
    return Database.from_dict(facts)


def random_stratified_program(seed: int) -> str:
    rng = random.Random(seed)
    base = rng.choice(BASE_PREDICATES)
    other = rng.choice(BASE_PREDICATES)
    lines = [f"p(X, Y) :- {base}(X, Y)."]
    shape = rng.randrange(3)
    if shape == 0:
        lines.append(f"p(X, Z) :- {base}(X, Y), p(Y, Z).")
    elif shape == 1:
        lines.append(f"p(X, Z) :- p(X, Y), {base}(Y, Z).")
    else:
        lines.append(f"p(X, Z) :- p(X, Y), p(Y, Z).")
    neg_shape = rng.randrange(3)
    if neg_shape == 0:
        lines.append(f"q(X, Y) :- {other}(X, Y), not p(X, Y).")
    elif neg_shape == 1:
        lines.append(f"q(X, Y) :- {other}(X, Y), not p(Y, X).")
    else:
        lines.append(f"q(X, Y) :- {other}(X, Z), {base}(Z, Y), not p(X, Y).")
    return "\n".join(lines)


def _answers(engine, program, query, database, cell, exec_mode, planning):
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    with configured(plan=planning), cell(exec_mode):
        result = run_engine(engine, program, query, fresh, counters)
    drain_planner_events()  # don't leak adaptive-replan events process-wide
    return result.answers


class TestPlanModeParity:
    @given(
        program_seed=st.integers(min_value=0, max_value=200),
        data_seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_six_cells_agree_on_stratified_programs(
        self, program_seed, data_seed, execution_cell
    ):
        program = parse_program(random_stratified_program(program_seed))
        database = random_database(data_seed, size=6)
        query = Literal("q", ["X", "Y"])
        reference = answer_query(program, query, database)
        for planning in PLAN_MODES:
            for exec_mode in EXECUTION_MODES:
                answers = _answers(
                    "seminaive",
                    program,
                    query,
                    database,
                    execution_cell,
                    exec_mode,
                    planning,
                )
                assert answers == reference, (planning, exec_mode)

    @given(
        program_seed=st.integers(min_value=0, max_value=120),
        data_seed=st.integers(min_value=0, max_value=120),
        start=st.sampled_from(CONSTANTS),
    )
    @settings(max_examples=20, deadline=None)
    def test_demand_strategies_agree_under_cost_mode(
        self, program_seed, data_seed, start, execution_cell
    ):
        # Positive core only: the magic engine rejects negation outright.
        positive = random_stratified_program(program_seed).splitlines()[:2]
        program = parse_program("\n".join(positive))
        database = random_database(data_seed, size=5)
        query = Literal("p", [start, "Y"])
        reference = answer_query(program, query, database)
        from repro.engines import get_engine

        engines = ["seminaive"]
        if get_engine("magic").applicable(program, query):
            engines.append("magic")
        for engine in engines:
            for planning in PLAN_MODES:
                answers = _answers(
                    engine,
                    program,
                    query,
                    database,
                    execution_cell,
                    "columnar",
                    planning,
                )
                assert answers == reference, (engine, planning)


class TestFixedWorkloadParity:
    @pytest.mark.parametrize("exec_mode", EXECUTION_MODES)
    def test_same_generation_cells_agree(self, exec_mode, execution_cell):
        from repro.workloads import sample_a

        program, database, query = sample_a(40)
        baseline = _answers(
            "seminaive", program, query, database, execution_cell, "columnar", "legacy"
        )
        cost = _answers(
            "seminaive", program, query, database, execution_cell, exec_mode, "cost"
        )
        assert cost == baseline
