"""Differential tests: the storage kernel's fast paths vs the reference.

Every engine is run on every workload family twice -- by default, on the
storage kernel's fast paths (batch probes, adjacency-bucket images, the
bucket-level charging memo), and under the reference evaluation,
``configured(execution="interpreted")``, where every retrieval goes through
``Database.match``/``scan`` charging row by row with no memo and
``Database.image`` runs the per-row scan loop.  Both must produce identical
answers *and* identical work counters, and the reference run must leave
every charging memo empty.  This is the executable form of the kernel's
core invariant: the counters measure *retrievals*, not representation.

The module also carries the regression tests for the satellite fixes that
landed with the kernel: ``Database.rows`` returning the live internal row
set, and the audit of the remaining accessors for leaked internals.
"""

import pytest

from repro.config import configured
from repro.datalog.database import Database, Delta, Relation
from repro.datalog.semantics import answer_query
from repro.engines import get_engine, run_engine
from repro.instrumentation import Counters
from repro.workloads import (
    binary_tree,
    chain,
    corridor,
    cycle,
    grid,
    hub_and_spoke,
    random_dag,
    random_genealogy,
    random_graph,
    sample_a,
    sample_b,
    sample_c,
    sample_cyclic,
)

WORKLOADS = {
    "chain-16": chain(16),
    "cycle-10": cycle(10),
    "tree-3": binary_tree(3),
    "dag-12": random_dag(12),
    "graph-9": random_graph(9, 16),
    "grid-3x3": grid(3, 3),
    "sample-a-8": sample_a(8),
    "sample-b-6": sample_b(6),
    "sample-c-6": sample_c(6),
    "sample-cyclic-3x4": sample_cyclic(3, 4),
    "genealogy-12": random_genealogy(12, 3),
    "corridor-5": corridor(5),
    "hub-3x2": hub_and_spoke(3, 2),
}

ALL_ENGINES = [
    "naive",
    "seminaive",
    "topdown",
    "magic",
    "counting",
    "reverse-counting",
    "henschen-naqvi",
    "graph",
]


def _measure(engine, workload, execution):
    program, database, query = workload
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    with configured(execution=execution):
        result = run_engine(engine, program, query, fresh, counters)
    return result.answers, counters.as_dict()


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_kernel_and_reference_storage_agree(engine, workload_name):
    workload = WORKLOADS[workload_name]
    program, database, query = workload
    try:
        applicable = get_engine(engine).applicable(program, query)
    except Exception:
        applicable = False
    if not applicable:
        pytest.skip(f"{engine} not applicable to {workload_name}")
    kernel_answers, kernel_counters = _measure(engine, workload, "columnar")
    oracle_answers, oracle_counters = _measure(engine, workload, "interpreted")
    assert kernel_answers == oracle_answers
    assert kernel_counters == oracle_counters
    if workload_name != "sample-cyclic-3x4":
        # On the cyclic Figure-8 sample the counting-family methods are
        # documented to return a partial answer under the default iteration
        # bound; mode agreement is still asserted above.
        assert kernel_answers == answer_query(program, query, database)


class TestImageDifferential:
    """Database.image: adjacency fast path vs the per-row scan loop."""

    DB = {"up": [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("x", "a")]}

    def _image(self, values, inverted, execution):
        counters = Counters()
        database = Database.from_dict(self.DB, counters=counters)
        with configured(execution=execution):
            result = database.image("up", values, inverted=inverted)
            again = database.image("up", values, inverted=inverted)
        assert result == again  # repeat retrieval is stable
        return result, counters.as_dict()

    @pytest.mark.parametrize("inverted", [False, True])
    @pytest.mark.parametrize(
        "values", [("a",), ("a", "b"), ("a", "zzz"), (), ("zzz",), ("a", "b", "c", "x", "d")]
    )
    def test_modes_agree_on_answers_and_counters(self, values, inverted):
        kernel = self._image(values, inverted, "columnar")
        reference = self._image(values, inverted, "interpreted")
        assert kernel == reference

    def test_repeat_images_charge_repeat_retrievals(self):
        counters = Counters()
        database = Database.from_dict(self.DB, counters=counters)
        assert database.image("up", ("a",)) == {"b", "c"}
        assert counters.fact_retrievals == 2
        assert counters.distinct_facts == 2
        assert database.image("up", ("a",)) == {"b", "c"}
        assert counters.fact_retrievals == 4  # retrievals accumulate
        assert counters.distinct_facts == 2  # distinct facts do not

    def test_memo_sees_insertions(self):
        counters = Counters()
        database = Database.from_dict(self.DB, counters=counters)
        assert database.image("up", ("a",)) == {"b", "c"}
        database.add_fact("up", ("a", "e"))
        assert database.image("up", ("a",)) == {"b", "c", "e"}
        assert counters.fact_retrievals == 5  # 2 + 3, new row charged
        assert counters.distinct_facts == 3

    def test_image_of_missing_predicate(self):
        assert Database().image("nosuch", ("a",)) == set()


class TestRowsSnapshot:
    """Regression: Database.rows leaked the live internal row set."""

    def test_rows_is_an_immutable_snapshot(self):
        database = Database.from_dict({"up": [("a", "b")]})
        rows = database.rows("up")
        with pytest.raises(AttributeError):
            rows.add(("x", "y"))
        database.add_fact("up", ("a", "c"))
        assert rows == {("a", "b")}  # the snapshot does not track the relation

    def test_rows_of_unknown_predicate(self):
        assert Database().rows("nosuch") == frozenset()

    def test_relation_rows_accessor_is_a_snapshot(self):
        relation = Relation("up", 2)
        relation.add(("a", "b"))
        rows = relation.rows
        with pytest.raises(AttributeError):
            rows.add(("x", "y"))
        relation.add(("a", "c"))
        assert rows == {("a", "b")}
        assert relation.rows == {("a", "b"), ("a", "c")}

    def test_scan_result_is_a_fresh_list(self):
        database = Database.from_dict({"up": [("a", "b")]})
        rows = database.scan("up")
        rows.append(("junk", "junk"))
        assert database.rows("up") == {("a", "b")}
        indexed = database.scan("up", {0: "a"})
        indexed.append(("junk", "junk"))
        assert database.scan("up", {0: "a"}) == [("a", "b")]

    def test_image_result_is_fresh(self):
        database = Database.from_dict({"up": [("a", "b")]})
        image = database.image("up", ("a",))
        image.add("junk")
        assert database.image("up", ("a",)) == {"b"}


class TestActiveDomain:
    def test_active_domain_size_counts_distinct_constants(self):
        database = Database.from_dict(
            {"up": [("a", "b"), ("b", "c")], "flag": [("a",), ("d",)]}
        )
        assert database.active_domain_size() == 4

    def test_active_domain_size_tracks_inserts(self):
        database = Database.from_dict({"up": [("a", "b")]})
        assert database.active_domain_size() == 2
        database.add_fact("up", ("b", "z"))
        assert database.active_domain_size() == 3


class TestQueryPinsUnderModes:
    """A full query gives the same counters by default and under the
    reference evaluation."""

    PROGRAM = """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    """

    @pytest.mark.parametrize("engine", ["henschen-naqvi", "counting", "graph"])
    def test_same_generation_counters_stable(self, engine):
        results = {}
        for execution in ("columnar", "interpreted"):
            program, database, query = sample_c(8)
            counters = Counters()
            database.reset_instrumentation(counters)
            with configured(execution=execution):
                answers = run_engine(engine, program, query, database, counters).answers
            results[execution] = (answers, counters.as_dict())
        assert results["columnar"] == results["interpreted"]


class TestReferenceIsMemoFree:
    """The reference evaluation never fills a charging memo.

    Every database an evaluation creates -- the per-call overlays, the
    runtime's scratch stores, a materialization's model -- is recorded, and
    after an interpreted run its bucket-charging memo (``_charged``), probe
    cache (``_probe_cache``) and image memo (``_image_ctx``) must all be
    empty.  The default run fills them, which shows that the recording sees
    the databases that charge.
    """

    WORKLOADS = ["chain-16", "sample-b-6", "sample-c-6", "genealogy-12"]

    @staticmethod
    def _memos(database):
        return database._charged, database._probe_cache, database._image_ctx

    def _databases_after(self, execution, monkeypatch):
        created = []
        init = Database.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        with monkeypatch.context() as patch, configured(execution=execution):
            patch.setattr(Database, "__init__", recording_init)
            for name in self.WORKLOADS:
                program, database, query = WORKLOADS[name]
                for engine_name in ALL_ENGINES:
                    engine = get_engine(engine_name)
                    if not engine.applicable(program, query):
                        continue
                    engine.answer(program, query, database.copy())
                    materialization = engine.materialize(program, database.copy())
                    materialization.answer(query)
                    predicate = min(p for p in program.base_predicates if database.count(p))
                    row = min(database.rows(predicate))
                    engine.resume(materialization, Delta(deletes={predicate: [row]}))
                    materialization.answer(query)
                    engine.resume(materialization, {predicate: [row]})
                    materialization.answer(query)
        return created

    def test_interpreted_run_leaves_every_memo_empty(self, monkeypatch):
        default = self._databases_after("columnar", monkeypatch)
        charged, probes, images = zip(*(self._memos(db) for db in default))
        assert any(charged) and any(probes) and any(images)
        for database in self._databases_after("interpreted", monkeypatch):
            assert self._memos(database) == ({}, {}, {})
