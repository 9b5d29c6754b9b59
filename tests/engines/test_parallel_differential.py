"""Parallel-vs-sequential differential suite.

The sequential path (``parallelism = 1``) is the differential oracle: for
every engine, workload family, join planner, execution cell and worker
count, evaluation under parallelism must produce the *same answers and the
same aggregated counters* as the sequential run -- the whole-fixpoint
offload (a component's delta rounds run per invariant-column partition on
a fork pool) is a scheduler, not semantics.

Also here: the regression for the per-database kernel-probe cache -- after
:meth:`Database.reset_instrumentation` and an EDB mutation, an offloaded
re-evaluation must never observe a stale probe memo -- a fork failure
falling back to the sequential loop, and the resume/DRed paths (which stay
sequential by contract but must behave identically while parallelism is
armed).
"""

import errno
import multiprocessing
from multiprocessing.context import ForkProcess

import pytest

from repro.config import configured
from repro.datalog.database import Database, Delta
from repro.datalog.parser import parse_literal, parse_program
from repro.engines import available_engines, get_engine
from repro.engines import runtime as _runtime
from repro.parallel import fork_available
from repro.workloads import chain, random_dag, sample_a, sample_cyclic


def _multi_component_workload():
    """One stratum with three left-linear SCCs, each offload-eligible."""
    program = parse_program(
        """
        reach_a(X, Y) :- edge_a(X, Y).
        reach_a(X, Z) :- reach_a(X, Y), edge_a(Y, Z).
        reach_b(X, Y) :- edge_b(X, Y).
        reach_b(X, Z) :- reach_b(X, Y), edge_b(Y, Z).
        joint(X, Y) :- reach_a(X, Y), reach_b(X, Y).
        joint(X, Z) :- joint(X, Y), reach_a(Y, Z).
        """
    )
    database = Database()
    for i in range(18):
        database.add_fact("edge_a", (i, i + 1))
        database.add_fact("edge_b", (i, (i + 1) % 19))
    return program, database, parse_literal("joint(X, Y)")


WORKLOADS = {
    "tc-chain": lambda: chain(24),
    "tc-dag": lambda: random_dag(14, 2, seed=7),
    "fig7a": lambda: sample_a(8),
    "fig8-cyclic": lambda: sample_cyclic(3, 4),
    "multi-component": _multi_component_workload,
}

#: Engines whose evaluation flows through the stratum runtime (and hence
#: through the parallel scheduler).  The rest are covered by one smoke cell
#: each -- parallelism must simply not disturb them.
RUNTIME_ENGINES = ["naive", "seminaive", "graph"]


@pytest.fixture
def force_sharding(monkeypatch):
    """Offload every eligible component, whatever its seed delta size."""
    monkeypatch.setattr(_runtime, "_SHARD_MIN_ROWS", 1)


def _execution(mode):
    return configured(execution=mode)


def _run(
    engine_name, workload_name, plan_mode, workers, cell=_execution, plan="legacy"
):
    program, database, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip(f"{engine_name} rejects this workload by contract")
    with configured(parallelism=workers, plan=plan), cell(plan_mode):
        result = engine.answer(program, query, database.copy())
    return result.answers, result.counters


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("plan_mode", ["interpreted", "columnar", "row-fallback"])
@pytest.mark.parametrize("plan", ["legacy", "cost"])
@pytest.mark.parametrize("engine_name", RUNTIME_ENGINES)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_parallel_matches_sequential(
    engine_name, workload_name, plan, plan_mode, workers, execution_cell
):
    expected_answers, expected_counters = _run(
        engine_name, workload_name, plan_mode, 1, execution_cell, plan
    )
    answers, counters = _run(
        engine_name, workload_name, plan_mode, workers, execution_cell, plan
    )
    assert answers == expected_answers, (
        f"{engine_name}/{workload_name} answers diverge at {workers} workers "
        f"({plan}/{plan_mode})"
    )
    assert counters == expected_counters, (
        f"{engine_name}/{workload_name} counters diverge at {workers} workers "
        f"({plan}/{plan_mode}): {counters} != {expected_counters}"
    )


@pytest.mark.parametrize("engine_name", sorted(set(available_engines()) - set(RUNTIME_ENGINES)))
def test_other_engines_are_undisturbed(engine_name):
    expected_answers, expected_counters = _run(engine_name, "tc-chain", "columnar", 1)
    answers, counters = _run(engine_name, "tc-chain", "columnar", 4)
    assert answers == expected_answers
    assert counters == expected_counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_forced_sharding_matches_sequential(workload_name, force_sharding):
    """Drive every delta round through the fork pool (threshold 1)."""
    expected_answers, expected_counters = _run("seminaive", workload_name, "columnar", 1)
    answers, counters = _run("seminaive", workload_name, "columnar", 4)
    assert answers == expected_answers
    assert counters == expected_counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_forced_sharding_actually_shards(force_sharding):
    """The guard above is only meaningful if the pool really engages.

    Needs a left-linear recursion: the shard recipe requires the delta
    occurrence at step 0 probing a non-recursive relation at step 1 (the
    right-linear ``chain`` plans keep ``edge`` first and are ineligible).
    Each of the workload's three closures offloads its whole fixpoint:
    one task per worker, one merge.
    """
    program, database, query = WORKLOADS["multi-component"]()
    with configured(parallelism=4, execution="columnar"):
        result = get_engine("seminaive").answer(program, query, database.copy())
    assert result.batch_stats.shards == 3 * 4
    assert result.batch_stats.merge_seconds > 0.0


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_independent_closures_each_offload(force_sharding):
    """Two independent left-linear closures and a join above them, all in
    one stratum: evaluation takes the components in order on the caller's
    thread, so *each* closure offloads its whole fixpoint to the pool
    (``workers`` tasks apiece), and the join reads both finished closures
    -- with answers and counters identical to the sequential run."""
    program = parse_program(
        """
        reach_a(X, Y) :- edge_a(X, Y).
        reach_a(X, Z) :- reach_a(X, Y), edge_a(Y, Z).
        reach_b(X, Y) :- edge_b(X, Y).
        reach_b(X, Z) :- reach_b(X, Y), edge_b(Y, Z).
        both(X, Y) :- reach_a(X, Y), reach_b(X, Y).
        """
    )
    database = Database()
    for i in range(16):
        database.add_fact("edge_a", (i, i + 1))
        database.add_fact("edge_b", (i, (i + 2) % 17))
    query = parse_literal("both(X, Y)")
    engine = get_engine("seminaive")
    workers = 2

    with configured(execution="columnar"):
        with configured(parallelism=1):
            sequential = engine.answer(program, query, database.copy())
        with configured(parallelism=workers):
            parallel = engine.answer(program, query, database.copy())
    assert sequential.answers  # the join is not vacuous
    assert parallel.batch_stats.shards == 2 * workers
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_fork_failure_falls_back_to_sequential(force_sharding, monkeypatch):
    """A worker that cannot be forked (``EAGAIN`` on the second start) must
    not escape: the pool reaps the worker it already started, and the
    component runs its ordinary sequential loop with nothing charged twice."""
    program = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    database = Database()
    for i in range(30):
        database.add_fact("edge", (i, i + 1))
    query = parse_literal("path(X, Y)")
    engine = get_engine("seminaive")
    with configured(parallelism=1, execution="columnar"):
        sequential = engine.answer(program, query, database.copy())

    real_start = ForkProcess.start
    starts = []

    def flaky_start(process):
        starts.append(process)
        if len(starts) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        real_start(process)

    monkeypatch.setattr(ForkProcess, "start", flaky_start)
    with configured(parallelism=2, execution="columnar"):
        parallel = engine.answer(program, query, database.copy())
    assert len(starts) == 2  # the offload really tried to fork
    assert parallel.batch_stats.shards == 0
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_fixpoint_offload_runs_whole_loop_on_pool(force_sharding):
    """A single left-linear plan with an invariant head column offloads the
    *entire* round loop: exactly one task per worker, one merge -- so the
    shard count equals the worker count, not workers x rounds -- while
    answers and counters (``iterations`` especially: the deepest
    partition's local round count) replay the sequential run exactly."""
    program = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    database = Database()
    for i in range(30):
        database.add_fact("edge", (i, i + 1))
    query = parse_literal("path(X, Y)")
    engine = get_engine("seminaive")

    with configured(execution="columnar"):
        sequential = engine.answer(program, query, database.copy())
        with configured(parallelism=4):
            parallel = engine.answer(program, query, database.copy())
    assert sequential.counters.iterations > 2  # a genuinely multi-round loop
    assert parallel.batch_stats.shards == 4
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_fixpoint_offload_ships_unseen_head_constant_by_value(force_sharding):
    """A recursive head constant that no pre-fork row contains is interned
    only inside the forked workers; their child-local codes are meaningless
    to the parent, so those rows must travel by value -- and the result
    must still be bit-identical to the sequential run."""
    program = parse_program(
        """
        mark(X, Y, "seed") :- edge(X, Y).
        mark(X, Z, "hop") :- mark(X, Y, _), edge(Y, Z).
        """
    )
    database = Database()
    for i in range(20):
        database.add_fact("edge", (i, i + 1))
    query = parse_literal("mark(X, Y, T)")
    engine = get_engine("seminaive")

    with configured(execution="columnar"):
        sequential = engine.answer(program, query, database.copy())
        with configured(parallelism=4):
            parallel = engine.answer(program, query, database.copy())
    assert any(row[2] == "hop" for row in sequential.answers)
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters


@pytest.mark.parametrize("workers", [1, 4])
def test_resume_and_dred_under_parallelism(workers):
    """Insert + retract maintenance with parallelism armed: same answers
    and counters as the sequential maintenance run, and the same answers
    as from-scratch evaluation over the final database."""
    program, full_db, query = WORKLOADS["tc-dag"]()
    rows = sorted(full_db.relations["edge"].table.all_rows())
    base_db = Database()
    base_db.add_facts("edge", rows[:-3])

    engine = get_engine("seminaive")
    with configured(parallelism=workers, execution="columnar"):
        materialization = engine.materialize(program, base_db.copy())
        engine.resume(materialization, {"edge": rows[-3:]})
        engine.resume(
            materialization, Delta(deletes={"edge": rows[:2]})
        )
        resumed = materialization.answer(query)

    final_db = Database()
    final_db.add_facts("edge", rows[2:])
    with configured(execution="columnar"):
        scratch = engine.answer(program, query, final_db)
    assert resumed.answers == scratch.answers


def _evaluation_sequence(monkeypatch, workers, force_shards=False):
    """Evaluate, reset instrumentation, mutate the EDB, evaluate again --
    on one database object, so cached probe state must invalidate."""
    program, database, query = _multi_component_workload()
    engine = get_engine("seminaive")
    with monkeypatch.context() as patch:
        patch.setattr(_runtime, "_SHARD_MIN_ROWS", 1 if force_shards else 1 << 30)
        with configured(parallelism=workers, execution="columnar"):
            first = engine.answer(program, query, database)
            database.reset_instrumentation()
            database.add_fact("edge_a", (18, 0))
            second = engine.answer(program, query, database)
    return first.answers, second.answers, second.counters


@pytest.mark.parametrize("force_shards", [False, True])
def test_probe_memo_never_stale_after_reset(force_shards, monkeypatch):
    """The per-database kernel-probe cache and charging memos are cleared
    by ``reset_instrumentation`` and invalidated by table mutation; an
    evaluation under parallelism after both (offloaded to the fork pool
    when ``force_shards``) must charge exactly like the sequential run (a
    stale memo would skew ``fact_retrievals``/``distinct_facts`` or corrupt
    answers)."""
    if force_shards and not fork_available():
        pytest.skip("needs the fork start method")
    seq_first, seq_second, seq_counters = _evaluation_sequence(monkeypatch, 1)
    par_first, par_second, par_counters = _evaluation_sequence(
        monkeypatch, 4, force_shards=force_shards
    )
    assert par_first == seq_first
    assert par_second == seq_second
    assert par_counters == seq_counters
