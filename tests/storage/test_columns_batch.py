"""Unit tests for the columnar batch kernel's storage pieces.

Covers the bulk-insert path (``IntTable.add_many`` with and without the
``distinct`` promise), the lazily-maintained subset indexes it defers to,
the per-database kernel-probe cache (also when a caller swaps the
database's counters for one call), and the charging parity of
:class:`~repro.storage.columns.KernelProbe` against ``Database.scan``.
"""

import pytest

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.engines import get_engine
from repro.instrumentation import Counters
from repro.session import QuerySession
from repro.storage import Interner, IntTable
from repro.storage.columns import KernelProbe, SilentProbe, build_probe
from repro.workloads import random_genealogy


def fresh_table(rows=(), arity=2):
    table = IntTable(arity, Interner())
    for row in rows:
        table.add(row)
    return table


class TestAddMany:
    def test_returns_new_rows_in_order(self):
        table = fresh_table([("a", "b")])
        new = table.add_many([("c", "d"), ("a", "b"), ("e", "f"), ("c", "d")])
        assert new == [("c", "d"), ("e", "f")]
        assert list(table.all_rows()) == [("a", "b"), ("c", "d"), ("e", "f")]

    def test_checks_arity_per_row(self):
        table = fresh_table()
        with pytest.raises(ValueError, match="arity"):
            table.add_many([("a", "b"), ("c",)])

    def test_mutation_epoch_counts_effective_adds(self):
        table = fresh_table([("a", "b")])
        before = table.mutations
        table.add_many([("a", "b"), ("c", "d")])
        assert table.mutations == before + 1

    def test_distinct_fast_path_stores_all_rows(self):
        table = fresh_table()
        rows = [("a", "b"), ("c", "d")]
        assert table.add_many(rows, distinct=True) == rows
        assert table.row_set() == frozenset(rows)

    def test_distinct_fast_path_still_checks_arity(self):
        table = fresh_table()
        with pytest.raises(ValueError, match="arity"):
            table.add_many([("a", "b"), ("c", "d", "e")], distinct=True)

    def test_add_many_unshares_a_snapshot(self):
        table = fresh_table([("a", "b")])
        snap = table.snapshot()
        table.add_many([("c", "d")])
        assert snap.row_set() == frozenset([("a", "b")])
        assert table.row_set() == frozenset([("a", "b"), ("c", "d")])


class TestLazyIndexes:
    def test_bulk_insert_defers_index_maintenance(self):
        table = fresh_table([("a", "b"), ("a", "c")])
        index = table._index_for(frozenset([0]))
        table.add_many([("a", "d"), ("b", "e")])
        # Maintenance was deferred: the index object is stale until probed.
        assert sum(len(bucket) for bucket in index.values()) == 2
        rows, _token = table.bucket({0: "a"})
        assert list(rows) == [("a", "b"), ("a", "c"), ("a", "d")]

    def test_catch_up_matches_eager_bucket_order(self):
        eager = fresh_table([("a", "b")])
        eager._index_for(frozenset([0]))
        lazy = fresh_table([("a", "b")])
        lazy._index_for(frozenset([0]))
        tail = [("a", "c"), ("b", "d"), ("a", "e")]
        for row in tail:
            eager.add(row)  # single adds maintain current indexes eagerly
        lazy.add_many(tail)
        for key in ("a", "b"):
            eager_rows, _ = eager.bucket({0: key})
            lazy_rows, _ = lazy.bucket({0: key})
            assert list(eager_rows) == list(lazy_rows)

    def test_single_add_keeps_lagging_index_lagging(self):
        table = fresh_table([("a", "b")])
        table._index_for(frozenset([0]))
        table.add_many([("a", "c")])
        table.add(("a", "d"))
        rows, _ = table.bucket({0: "a"})
        assert list(rows) == [("a", "b"), ("a", "c"), ("a", "d")]

    def test_removal_catches_up_before_fixing_buckets(self):
        table = fresh_table([("a", "b")])
        table._index_for(frozenset([0]))
        table.add_many([("a", "c"), ("a", "d")])
        assert table.remove(("a", "c"))
        rows, _ = table.bucket({0: "a"})
        assert list(rows) == [("a", "b"), ("a", "d")]

    def test_multi_position_index_catches_up(self):
        table = fresh_table([("a", "b", "x")], arity=3)
        table._index_for(frozenset([0, 1]))
        table.add_many([("a", "b", "y"), ("a", "c", "z")])
        rows, _ = table.bucket({0: "a", 1: "b"})
        assert list(rows) == [("a", "b", "x"), ("a", "b", "y")]


class TestProbeCharging:
    def _db(self):
        return Database.from_dict(
            {"e": [("a", "b"), ("a", "c"), ("b", "c")]}, counters=Counters()
        )

    def test_kernel_probe_charges_like_scan(self):
        scanned = self._db()
        probed = self._db()
        for key in ("a", "b", "a", "zzz"):
            scanned.scan("e", {0: key})
        relation = probed.relations["e"]
        probe = KernelProbe(probed, relation, (0,))
        code_of = relation.table.interner._code_of
        for key in ("a", "b", "a", "zzz"):
            code = code_of.get(key)
            probe.lookup(None if code is None else (code,))
        assert probed.counters.as_dict() == scanned.counters.as_dict()

    def test_local_memo_charges_retrievals_per_repeat(self):
        db = self._db()
        relation = db.relations["e"]
        probe = KernelProbe(db, relation, (0,))
        code = relation.table.interner._code_of["a"]
        first = probe.lookup((code,))
        again = probe.lookup((code,))
        assert list(first) == [("a", "b"), ("a", "c")]
        assert again is first
        assert db.counters.fact_retrievals == 4
        assert db.counters.distinct_facts == 2

    def test_silent_probe_charges_nothing(self):
        db = self._db()
        relation = db.relations["e"]
        probe = SilentProbe(relation, (0,))
        code = relation.table.interner._code_of["a"]
        assert list(probe.lookup((code,))) == [("a", "b"), ("a", "c")]
        assert db.counters.fact_retrievals == 0


class TestProbeCache:
    def test_probe_reused_while_table_unchanged(self):
        db = Database.from_dict({"e": [("a", "b")]}, counters=Counters())
        first = build_probe(db, "e", (0,), db.counters)
        second = build_probe(db, "e", (0,), db.counters)
        assert first is second

    def test_mutation_invalidates_cached_probe(self):
        db = Database.from_dict({"e": [("a", "b")]}, counters=Counters())
        cached = build_probe(db, "e", (0,), db.counters)
        db.add_fact("e", ("c", "d"))
        rebuilt = build_probe(db, "e", (0,), db.counters)
        assert rebuilt is not cached

    def test_instrumentation_reset_drops_cached_probes(self):
        db = Database.from_dict({"e": [("a", "b")]}, counters=Counters())
        cached = build_probe(db, "e", (0,), db.counters)
        db.reset_instrumentation(Counters())
        rebuilt = build_probe(db, "e", (0,), db.counters)
        assert rebuilt is not cached
        assert rebuilt.counters is db.counters

    def test_swapped_counters_get_a_fresh_probe(self):
        db = Database.from_dict({"e": [("a", "b")]}, counters=Counters())
        cached = build_probe(db, "e", (0,), db.counters)
        db.counters = Counters()
        rebuilt = build_probe(db, "e", (0,), db.counters)
        assert rebuilt is not cached
        assert rebuilt.counters is db.counters


def _per_call_counters(measure):
    """``measure()``'s counters by default and under the reference
    evaluation, which builds no probes."""
    results = {}
    for execution in ("columnar", "interpreted"):
        with configured(execution=execution):
            results[execution] = measure().as_dict()
    return results


class TestPerCallCounters:
    """A materialization's resume and a magic refresh swap the database's
    counters for one call; a probe cached before the swap must not keep
    charging the old object."""

    def test_model_resume_charges_the_call(self):
        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z). "
            "r(X, Z) :- tc(X, Y), f(Y, Z)."
        )
        facts = {
            "e": [(i, i + 1) for i in range(30)],
            "f": [(i, 2 * i) for i in range(40)],
        }

        def measure():
            materialization = get_engine("seminaive").materialize(
                program, Database.from_dict(facts)
            )
            call = Counters()
            materialization.resume({"e": [(31, 32), (30, 31)]}, counters=call)
            return call

        results = _per_call_counters(measure)
        assert results["columnar"] == results["interpreted"]
        assert results["interpreted"]["fact_retrievals"] == 125
        assert results["interpreted"]["distinct_facts"] == 4

    def test_magic_refresh_charges_the_query(self):
        def measure():
            program, database, query = random_genealogy(120, 5)
            session = QuerySession(program, database, engine="magic")
            session.query(query)
            session.insert({"up": [("p0", "p1")], "down": [("p1", "p0")]})
            return session.query(query).counters

        results = _per_call_counters(measure)
        assert results["columnar"] == results["interpreted"]
        assert results["interpreted"]["fact_retrievals"] == 119
        assert results["interpreted"]["distinct_facts"] == 28
