"""Pinned work counters for the paper samples (Table 1, Fig 7a-c, Fig 8).

``paper_counters.json`` holds, for every engine x paper-sample cell, the
exact answers and work-counter values.  The storage kernel made these fully
deterministic: rows are stored in insertion order, so the fixpoint engines
that enumerate the database while extending it (naive, seminaive, magic) no
longer depend on the per-process hash seed the historical set-based storage
leaked into their round structure.  The demand-driven strategies (counting,
reverse counting, Henschen-Naqvi, graph traversal, top-down) were already
order-insensitive and their pinned values are bit-identical to the
pre-kernel implementation.

Any change to these numbers is a change to the *measured work* of a
strategy on a paper sample and must be deliberate: regenerate the fixture
only when an engine or charging change is intended, never to accommodate a
storage representation change (the differential suite in
``tests/storage/test_storage_differential.py`` enforces that representation
cannot move counters).
"""

import json
import pathlib

import pytest

from repro.engines import run_engine
from repro.instrumentation import Counters
from repro.workloads import sample_a, sample_b, sample_c, sample_cyclic

FIXTURE = pathlib.Path(__file__).with_name("paper_counters.json")
PINS = json.loads(FIXTURE.read_text())

WORKLOADS = {}
for _n in (10, 20, 40):
    WORKLOADS[f"fig7a-{_n}"] = sample_a(_n)
    WORKLOADS[f"fig7b-{_n}"] = sample_b(_n)
    WORKLOADS[f"fig7c-{_n}"] = sample_c(_n)
WORKLOADS["fig8-3x4"] = sample_cyclic(3, 4)
WORKLOADS["fig8-5x7"] = sample_cyclic(5, 7)

CELLS = [
    (workload, engine)
    for workload, row in sorted(PINS.items())
    for engine in sorted(row)
]


@pytest.mark.parametrize("plan_mode", ["interpreted", "columnar", "row-fallback"])
@pytest.mark.parametrize("workload_name,engine", CELLS)
def test_paper_sample_counters_are_pinned(
    workload_name, engine, plan_mode, execution_cell
):
    """Every pinned cell must hold under both plan-execution modes and the
    row-executor fallback: the columnar batch executor (the default) and
    the row path it falls back to are only admissible if they charge work
    bit-identical to the interpreted reference executor."""
    program, database, query = WORKLOADS[workload_name]
    expected = PINS[workload_name][engine]
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    try:
        with execution_cell(plan_mode):
            result = run_engine(engine, program, query, fresh, counters)
    except Exception as exc:  # pinned failures stay failures
        assert expected == {"error": type(exc).__name__}
        return
    assert sorted(map(repr, result.answers)) == expected["answers"]
    assert counters.as_dict() == expected["counters"]
