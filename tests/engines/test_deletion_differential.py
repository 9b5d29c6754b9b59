"""Deletion-vs-scratch differential suite.

For every engine and every workload family: materialize over the full EDB,
retract a slice of it, resume with the signed delta, and assert the answers
equal a from-scratch materialization over the reduced database.  The model
engines must get there by delete-rederive maintenance (never a rebuild), the
demand engines by lazy per-entry invalidation.  Interleaved insert/retract
streams, both join planners and every execution cell are covered, as are
the delete-then-reinsert round trip and the contract errors.

As in ``test_incremental_differential.py``, the bounded set-at-a-time
methods (counting, reverse counting, Henschen-Naqvi) truncate on cyclic data
by design, so the reference is the same engine from scratch; where the
engine is exact the least-model cross-check is applied too.
"""

import pytest

from repro.config import configured
from repro.datalog.database import Database, Delta
from repro.datalog.errors import NotApplicableError
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.engines import available_engines, get_engine
from repro.workloads import (
    chain,
    random_dag,
    sample_a,
    sample_b,
    sample_c,
    sample_cyclic,
)

ALL_ENGINES = sorted(available_engines())

_BOUNDED_ON_CYCLES = {"counting", "reverse-counting", "henschen-naqvi"}


def _nonlinear_workload():
    program = parse_program(
        """
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- anc(X, Z), anc(Z, Y).
        """
    )
    database = Database.from_dict(
        {"par": [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 7)]}
    )
    return program, database, parse_literal("anc(1, Y)")


WORKLOADS = {
    "fig7a": lambda: sample_a(8),
    "fig7b": lambda: sample_b(8),
    "fig7c": lambda: sample_c(8),
    "fig8-cyclic": lambda: sample_cyclic(3, 4),
    "tc-chain": lambda: chain(10),
    "tc-dag": lambda: random_dag(14, 2, seed=7),
    "nonlinear-anc": _nonlinear_workload,
}

#: Mode cross-product runs on a representative subset to bound the runtime;
#: the full workload matrix runs under the default modes.
MODE_WORKLOADS = ["tc-chain", "fig7c", "nonlinear-anc"]


def _retraction_slice(database, fraction=0.3):
    """Deterministic {predicate: rows} slice of ~``fraction`` of each relation."""
    deletes = {}
    for predicate in sorted(database.predicates()):
        rows = list(database.relations[predicate].table.all_rows())
        count = max(1, int(len(rows) * fraction)) if rows else 0
        # spread the picks across the relation instead of one prefix
        step = max(1, len(rows) // count) if count else 1
        picked = rows[::step][:count]
        if picked:
            deletes[predicate] = picked
    return deletes


def _one_shot(engine_name, program, query, database):
    return get_engine(engine_name).answer(program, query, database).answers


def _reduced(full_db, deletes):
    reduced = full_db.copy()
    for predicate, rows in deletes.items():
        reduced.remove_facts(predicate, rows)
    return reduced


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_delete_resume_equals_from_scratch(engine_name, workload_name):
    program, full_db, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip(f"{engine_name} not applicable to {workload_name}")
    deletes = _retraction_slice(full_db)
    reduced_db = _reduced(full_db, deletes)

    try:
        materialization = engine.materialize(program, full_db)
        materialization.answer(query)  # populate the (demand) cache first
    except NotApplicableError:
        pytest.skip(f"{engine_name} not applicable to {workload_name}")

    engine.resume(materialization, Delta(deletes=deletes))
    resumed = materialization.answer(query)

    scratch = engine.materialize(program, reduced_db).answer(query)
    assert scratch.answers == _one_shot(engine_name, program, query, reduced_db), (
        f"{engine_name} scratch materialization disagrees with one-shot"
    )
    assert resumed.answers == scratch.answers, (
        f"{engine_name} delete-resume != scratch on {workload_name}"
    )
    if not (engine_name in _BOUNDED_ON_CYCLES and workload_name == "fig8-cyclic"):
        assert scratch.answers == answer_query(program, query, reduced_db), (
            f"{engine_name} scratch != least model on {workload_name}"
        )


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("engine_name", ["naive", "seminaive"])
def test_dred_repairs_the_whole_model(engine_name, workload_name):
    """The maintained model equals the from-scratch model relation by relation,
    not just on one query -- and the materialization is repaired in place."""
    program, full_db, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    deletes = _retraction_slice(full_db)
    reduced_db = _reduced(full_db, deletes)

    materialization = engine.materialize(program, full_db)
    repaired_instance = materialization.database
    engine.resume(materialization, Delta(deletes=deletes))
    assert materialization.database is repaired_instance, (
        "positive-program DRed must maintain the model in place"
    )
    scratch = engine.materialize(program, reduced_db)
    for predicate in sorted(program.derived_predicates | program.base_predicates):
        assert materialization.database.rows(predicate) == scratch.database.rows(
            predicate
        ), f"{engine_name} relation {predicate!r} differs after DRed"


@pytest.mark.parametrize("workload_name", MODE_WORKLOADS)
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@pytest.mark.parametrize("plan", ["legacy", "cost"])
@pytest.mark.parametrize("plan_mode", ["interpreted", "columnar", "row-fallback"])
def test_delete_resume_under_modes(
    engine_name, workload_name, plan, plan_mode, execution_cell
):
    program, full_db, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip(f"{engine_name} not applicable to {workload_name}")
    deletes = _retraction_slice(full_db)
    reduced_db = _reduced(full_db, deletes)
    with configured(plan=plan), execution_cell(plan_mode):
        try:
            materialization = engine.materialize(program, full_db)
            materialization.answer(query)
        except NotApplicableError:
            pytest.skip(f"{engine_name} not applicable to {workload_name}")
        engine.resume(materialization, Delta(deletes=deletes))
        resumed = materialization.answer(query)
        scratch = engine.materialize(program, reduced_db).answer(query)
    assert resumed.answers == scratch.answers, (
        f"{engine_name} delete-resume != scratch on {workload_name} "
        f"({plan}/{plan_mode})"
    )


@pytest.mark.parametrize("workload_name", ["tc-chain", "fig7a", "nonlinear-anc"])
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_interleaved_insert_retract_stream(engine_name, workload_name):
    """A stream alternating one-row retractions and insertions converges to
    the same fixpoint as from-scratch over the final database."""
    program, full_db, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip(f"{engine_name} not applicable to {workload_name}")
    deletes = _retraction_slice(full_db, fraction=0.4)
    final_db = full_db.copy()

    try:
        materialization = engine.materialize(program, full_db)
        materialization.answer(query)
    except NotApplicableError:
        pytest.skip(f"{engine_name} not applicable to {workload_name}")

    flat = [
        (predicate, row)
        for predicate in sorted(deletes)
        for row in deletes[predicate]
    ]
    for index, (predicate, row) in enumerate(flat):
        engine.resume(materialization, Delta(deletes={predicate: [row]}))
        final_db.remove_fact(predicate, row)
        if index % 2 == 0:
            # immediately re-insert every other retracted row
            engine.resume(materialization, {predicate: [row]})
            final_db.add_fact(predicate, row)
        # answering mid-stream must stay internally consistent
        assert materialization.answer(query).answers is not None

    expected = _one_shot(engine_name, program, query, final_db)
    assert materialization.answer(query).answers == expected, (
        f"{engine_name} interleaved stream != scratch on {workload_name}"
    )


@pytest.mark.parametrize("engine_name", ["seminaive", "magic", "graph"])
def test_delete_then_reinsert_restores_the_fixpoint(engine_name):
    program, full_db, query = WORKLOADS["tc-chain"]()
    engine = get_engine(engine_name)
    materialization = engine.materialize(program, full_db)
    before = materialization.answer(query).answers
    (predicate,) = full_db.predicates()
    row = next(iter(full_db.relations[predicate].table.all_rows()))
    engine.resume(materialization, Delta(deletes={predicate: [row]}))
    engine.resume(materialization, {predicate: [row]})
    assert materialization.answer(query).answers == before


@pytest.mark.parametrize("engine_name", ["seminaive", "graph"])
def test_absent_delete_is_a_no_op(engine_name):
    program, full_db, query = WORKLOADS["fig7a"]()
    engine = get_engine(engine_name)
    materialization = engine.materialize(program, full_db)
    before = materialization.answer(query).answers
    engine.resume(materialization, Delta(deletes={"up": [("nope", "nothere")]}))
    assert materialization.answer(query).answers == before
    # ineffective deletes advance neither the database nor the basis version
    assert materialization.basis_version == full_db.version


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_delete_resume_rejects_derived_predicates(engine_name):
    program, full_db, query = WORKLOADS["tc-chain"]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip("not applicable")
    materialization = engine.materialize(program, full_db)
    with pytest.raises(ValueError):
        engine.resume(materialization, Delta(deletes={"tc": [(0, 9)]}))


def test_mixed_delta_applies_deletes_before_inserts():
    """delta_since after a retract+insert round trip nets out; a manually
    mixed delta maintains both signs in one resume."""
    program, full_db, query = WORKLOADS["tc-chain"]()
    engine = get_engine("seminaive")
    materialization = engine.materialize(program, full_db)
    (predicate,) = full_db.predicates()
    rows = list(full_db.relations[predicate].table.all_rows())
    delta = Delta(
        deletes={predicate: [rows[3]]},
        inserts={predicate: [(97, 98), (98, 99)]},
    )
    engine.resume(materialization, delta)
    reduced = full_db.copy()
    reduced.remove_fact(predicate, rows[3])
    reduced.add_facts(predicate, [(97, 98), (98, 99)])
    assert materialization.answer(query).answers == answer_query(
        program, query, reduced
    )


def test_repeated_delete_rows_within_one_delta_count_once():
    from repro.datalog.terms import Constant

    program, full_db, query = WORKLOADS["tc-chain"]()
    engine = get_engine("seminaive")
    materialization = engine.materialize(program, full_db)
    (predicate,) = full_db.predicates()
    row = next(iter(full_db.relations[predicate].table.all_rows()))
    wrapped = tuple(Constant(v) for v in row)
    full_db.remove_fact(predicate, row)
    engine.resume(
        materialization, Delta(deletes={predicate: [row, wrapped]})
    )
    assert materialization.basis_version <= full_db.version
    full_db.delta_since(materialization.basis_version)  # must not raise
