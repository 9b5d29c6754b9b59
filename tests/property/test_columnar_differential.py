"""Property-based executor differential: columnar = row fallback = interpreted.

Random stratified programs -- recursive positive cores topped with negation
and aggregation strata -- run over random databases under both plan
execution modes and under the columnar mode with every firing forced
through the row executor.  Answers and the full work-counter dictionary must
be bit-identical: the columnar batch executor's charging contract promises
the exact ``fact_retrievals``/``distinct_facts``/firing sequence of the
interpreted reference executor, not just the same least model.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program
from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.instrumentation import Counters

BASE_PREDICATES = ["e", "f"]
CONSTANTS = list(range(5))
MODES = ("interpreted", "columnar", "row-fallback")


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
    """A random program with a recursive core plus negation/aggregate strata.

    Stratum 0: a recursive closure ``p`` over one base relation (random
    linear shape).  Stratum 1: ``q`` negates ``p`` under bindings supplied
    by positive base literals (always safe, always stratified).  Stratum 2:
    optionally an aggregate head folding ``q`` or ``p``.
    """
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
    if rng.random() < 0.5:
        source = rng.choice(["p", "q"])
        func = rng.choice(["count", "min", "max", "sum"])
        lines.append(f"a(X, {func}(Y)) :- {source}(X, Y).")
    return "\n".join(lines)


def _measure(engine: str, program, query, database, cell, mode: str):
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    with cell(mode):
        result = run_engine(engine, program, query, fresh, counters)
    return result.answers, counters.as_dict()


class TestExecutorAgreement:
    @given(
        program_seed=st.integers(min_value=0, max_value=300),
        data_seed=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_seminaive_modes_agree_on_stratified_programs(
        self, program_seed, data_seed, execution_cell
    ):
        program = parse_program(random_stratified_program(program_seed))
        database = random_database(data_seed, size=6)
        query = Literal("q", ["X", "Y"])
        results = {
            mode: _measure("seminaive", program, query, database, execution_cell, mode)
            for mode in MODES
        }
        assert results["columnar"] == results["interpreted"]
        assert results["row-fallback"] == results["interpreted"]
        assert results["columnar"][0] == answer_query(program, query, database)

    @given(
        program_seed=st.integers(min_value=0, max_value=150),
        data_seed=st.integers(min_value=0, max_value=150),
        start=st.sampled_from(CONSTANTS),
    )
    @settings(max_examples=30, deadline=None)
    def test_naive_modes_agree_on_bound_recursive_queries(
        self, program_seed, data_seed, start, execution_cell
    ):
        program = parse_program(random_stratified_program(program_seed))
        database = random_database(data_seed, size=5)
        query = Literal("p", [start, "Y"])
        results = {
            mode: _measure("naive", program, query, database, execution_cell, mode)
            for mode in MODES
        }
        assert results["columnar"] == results["interpreted"]
        assert results["row-fallback"] == results["interpreted"]
        assert results["columnar"][0] == answer_query(program, query, database)