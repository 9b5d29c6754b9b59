"""Stratified differential suite: every applicable engine on every
negation/aggregation workload family, under both join planners and in every
execution cell, against the independent per-stratum reference
evaluator (:func:`repro.datalog.semantics.stratified_model`) -- plus the
non-monotone session resume path against from-scratch recomputation."""

import pytest

from repro.config import configured
from repro.datalog.analysis import Stratification
from repro.datalog.database import Database
from repro.datalog.errors import StratificationError
from repro.datalog.semantics import answer_against_relation, stratified_model
from repro.engines import available_engines, get_engine
from repro.session import QuerySession
from repro.workloads import (
    non_reachability,
    shortest_paths,
    unstratifiable_win_program,
    win_not_move,
)

WORKLOADS = {
    "win-not-move": lambda: win_not_move(3),
    "win-not-move-wide": lambda: win_not_move(2, fanout=3),
    "non-reachability": lambda: non_reachability(9, extra_edges=4, seed=3),
    "shortest-paths": lambda: shortest_paths(8, extra_edges=3, seed=5),
}

ALL_ENGINES = sorted(available_engines())

#: Engines able to evaluate stratified programs: the model engines run the
#: stratum scheduler natively, the graph engine falls back to the planner's
#: stratified bottom-up path.  Everything else must report inapplicability.
STRATIFIED_ENGINES = ["naive", "seminaive", "graph"]


def _reference(program, database, query):
    model = stratified_model(program, database)
    return answer_against_relation(model.rows(query.predicate), query)


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@pytest.mark.parametrize("plan", ["legacy", "cost"])
@pytest.mark.parametrize("plan_mode", ["interpreted", "columnar", "row-fallback"])
def test_engines_match_the_stratified_reference(
    engine_name, workload_name, plan, plan_mode, execution_cell
):
    program, database, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        assert engine_name not in STRATIFIED_ENGINES, (
            f"{engine_name} should accept stratified programs"
        )
        pytest.skip(f"{engine_name} rejects stratified programs by contract")
    expected = _reference(program, database, query)
    with configured(plan=plan), execution_cell(plan_mode):
        result = engine.answer(program, query, database.copy())
    assert result.answers == expected, (
        f"{engine_name} diverges from the stratified reference on "
        f"{workload_name} ({plan}/{plan_mode})"
    )


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("engine_name", STRATIFIED_ENGINES)
def test_materialize_answer_matches_one_shot(engine_name, workload_name):
    program, database, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    materialization = engine.materialize(program, database)
    assert materialization.answer(query).answers == _reference(
        program, database, query
    )
    # repeated answers are cache hits with identical content
    assert materialization.answer(query).answers == materialization.answer(query).answers


def _split_database(database, keep_fraction):
    base = Database()
    delta = {}
    for predicate in sorted(database.predicates()):
        rows = list(database.relations[predicate].table.all_rows())
        keep = max(1, int(len(rows) * keep_fraction)) if rows else 0
        base.add_facts(predicate, rows[:keep])
        if rows[keep:]:
            delta[predicate] = rows[keep:]
    return base, delta


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("engine_name", ["naive", "seminaive"])
def test_resume_equals_from_scratch(engine_name, workload_name):
    """The non-monotone resume restarts at the lowest affected stratum and
    must land on exactly the from-scratch perfect model."""
    program, full_db, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    base_db, delta = _split_database(full_db, 0.6)
    if not delta:
        pytest.skip("workload too small to split")
    materialization = engine.materialize(program, base_db)
    engine.resume(materialization, delta)
    resumed = materialization.answer(query)
    assert resumed.answers == _reference(program, full_db, query), (
        f"{engine_name} stratified resume != scratch on {workload_name}"
    )


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_session_resume_after_delta_matches_scratch(workload_name):
    """QuerySession.insert_facts over stratified programs: answers after the
    resume equal a fresh session over the full database (retractions
    included)."""
    program, full_db, query = WORKLOADS[workload_name]()
    base_db, delta = _split_database(full_db, 0.5)
    if not delta:
        pytest.skip("workload too small to split")

    session = QuerySession(program, base_db)
    assert session.strategy_for(query) == "seminaive"
    session.query(query)  # materialize over the base split
    for predicate, rows in sorted(delta.items()):
        session.insert_facts(predicate, rows)
    resumed = session.query(query).answers

    scratch = QuerySession(program, full_db.copy()).query(query).answers
    assert resumed == scratch == _reference(program, full_db, query)
    assert session.stats["resumes"] >= 1


@pytest.mark.parametrize("workload_name", ["non-reachability", "win-not-move"])
def test_streamed_session_resume_one_row_at_a_time(workload_name):
    program, full_db, query = WORKLOADS[workload_name]()
    base_db, delta = _split_database(full_db, 0.7)
    if not delta:
        pytest.skip("workload too small to split")
    session = QuerySession(program, base_db)
    session.query(query)
    for predicate, rows in sorted(delta.items()):
        for row in rows:
            session.insert_facts(predicate, [row])
            assert session.query(query).answers is not None
    assert session.query(query).answers == _reference(program, full_db, query)


@pytest.mark.parametrize("engine_name", ["naive", "seminaive"])
def test_unstratifiable_program_raises_before_evaluating(engine_name):
    program = unstratifiable_win_program()
    database = Database.from_dict({"move": [(1, 2), (2, 1)]})
    with pytest.raises(StratificationError):
        get_engine(engine_name).answer(
            program, program.rules[0].head, database
        )


def test_resume_delta_invisible_to_the_program_is_free():
    program, database, query = WORKLOADS["non-reachability"]()
    engine = get_engine("seminaive")
    materialization = engine.materialize(program, database)
    before = materialization.answer(query).answers
    engine.resume(materialization, {"unrelated": [(99,)]})
    assert materialization.answer(query).answers == before


def test_lower_strata_are_reused_on_resume():
    """A delta touching only the top stratum's inputs must not drop the
    recursive lower stratum's cached relations."""
    program, database, query = WORKLOADS["non-reachability"]()
    stratification = Stratification.of(program)
    assert stratification.lowest_affected_stratum({"node"}) == 1
    engine = get_engine("seminaive")
    materialization = engine.materialize(program, database)
    tc_relation = materialization.database.relations["tc"]
    engine.resume(materialization, {"node": [(77,)]})
    # the tc model of stratum 0 is shared, not recomputed
    assert materialization.database.relations["tc"] is tc_relation
    answers = materialization.answer(query).answers
    assert (77,) in answers  # 77 is a node now, unreachable from 0
