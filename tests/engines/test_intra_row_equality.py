"""Intra-row equalities in the columnar batch executor.

A repeated unbound variable (``g(Y, Z, Z)``) makes a scan keep only the rows
whose components agree at those positions.  The batch executor applies that
filter inside its probes -- a keyed step's kernel probe, a delta step's
silent probe -- and scans a keyless step once, charging the repeats.  Each
program below puts one of those shapes in a recursive or non-recursive
rule; seminaive answers and work counters must be identical in every
execution cell -- the interpreted reference evaluation, whose scans charge
memo-free, is the baseline -- and the answers must match the naive
reference.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.instrumentation import Counters

#: One fixed EDB.  ``g`` and ``h`` mix rows whose repeated positions agree
#: with rows whose positions differ, so a probe that skipped the filter
#: would change the answers.
EDB = {
    "e": [(1, 2), (2, 3), (3, 4), (4, 2), (1, 3), (5, 1)],
    "g": [
        (2, 5, 5),
        (2, 6, 7),
        (3, 6, 6),
        (3, 3, 3),
        (3, 8, 9),
        (4, 2, 2),
        (5, 1, 1),
        (6, 6, 4),
    ],
    "h": [(7, 7), (7, 8), (9, 9), (8, 7)],
    "k": [(3, 6), (2, 9), (4, 2)],
}

PROGRAMS = {
    # A keyed step with a repeated unbound variable.
    "keyed": ("r(X, Y) :- e(X, Y), g(Y, Z, Z).", "r(X, Y)"),
    # A keyless step: every parent row scans the same filtered bucket.
    "keyless": ("r(X, W) :- e(X, Y), h(W, W).", "r(X, W)"),
    # The keyed step followed by an anti-join.
    "keyed-negation": (
        "r(X, Y) :- e(X, Y), g(Y, Z, Z), not k(Y, Z).",
        "r(X, Y)",
    ),
    # Delta-driven: the delta scan feeds the filtered probe of ``g``.
    "delta-driven": (
        "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), g(Y, Z, Z).",
        "t(X, Y)",
    ),
    # Self-feeding round 0: a later step scans the head relation.
    "self-feeding": (
        "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), g(Y, Z, Z), t(Z, W).",
        "t(X, Y)",
    ),
    # The repeated variable sits on the delta step itself: a silent probe
    # of the per-round delta, read through its index.
    "delta-probe": (
        "w(X, Y, Z) :- g(X, Y, Z).\nw(X, Z, Z) :- e(X, Y), w(Y, Z, Z).",
        "w(X, Y, Z)",
    ),
}

EXECUTION = ["columnar", "interpreted", "row-fallback"]


def _run(name, execution, execution_cell):
    text, query_text = PROGRAMS[name]
    program = parse_program(text)
    query = parse_literal(query_text)
    counters = Counters()
    database = Database.from_dict(EDB, counters=counters)
    with execution_cell(execution):
        result = run_engine("seminaive", program, query, database, counters)
    return result, counters


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_cell_agrees(name, execution_cell):
    text, query_text = PROGRAMS[name]
    expected = answer_query(
        parse_program(text), parse_literal(query_text), Database.from_dict(EDB)
    )
    assert expected, f"{name}: the fixture must derive something"
    outcomes = {}
    for execution in EXECUTION:
        result, counters = _run(name, execution, execution_cell)
        assert result.answers == expected, (name, execution)
        outcomes[execution] = counters.as_dict()
        if execution == "columnar":
            assert result.batch_stats.batches > 0, name
    baseline = outcomes["interpreted"]
    for cell, counters in outcomes.items():
        assert counters == baseline, (name, cell)

