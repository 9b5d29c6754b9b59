"""Unit tests for the interned row table (IntTable)."""

from repro.storage import FULL_SCAN, Interner, IntTable


def table_of(rows, arity=2, interner=None):
    table = IntTable(arity, interner if interner is not None else Interner())
    for row in rows:
        table.add(row)
    return table


class TestRows:
    def test_add_deduplicates(self):
        table = table_of([])
        assert table.add(("a", "b"))
        assert not table.add(("a", "b"))
        assert len(table) == 1

    def test_rows_round_trip_in_insertion_order(self):
        rows = [("a", "b"), ("c", "d"), ("a", "d")]
        table = table_of(rows)
        assert list(table.all_rows()) == rows
        assert table.row_set() == frozenset(rows)

    def test_contains_handles_unknown_constants(self):
        table = table_of([("a", "b")])
        assert table.contains(("a", "b"))
        assert not table.contains(("a", "zzz"))  # zzz never interned

    def test_int_rows_are_interned(self):
        interner = Interner()
        table = table_of([("a", "b"), ("b", "a")], interner=interner)
        assert set(table.int_rows()) == {(0, 1), (1, 0)}


class TestBuckets:
    def test_bucket_by_any_position_subset(self):
        table = table_of([("a", "b"), ("a", "c"), ("b", "c")])
        rows, token = table.bucket({0: "a"})
        assert set(rows) == {("a", "b"), ("a", "c")}
        assert token[0] == frozenset({0})
        rows, _ = table.bucket({1: "c"})
        assert set(rows) == {("a", "c"), ("b", "c")}
        rows, _ = table.bucket({0: "a", 1: "c"})
        assert rows == [("a", "c")]

    def test_empty_bindings_is_a_full_scan(self):
        table = table_of([("a", "b")])
        rows, token = table.bucket({})
        assert rows == [("a", "b")]
        assert token is FULL_SCAN

    def test_unknown_binding_value_matches_nothing(self):
        table = table_of([("a", "b")])
        rows, token = table.bucket({0: "nope"})
        assert rows == []
        assert token[1] is None

    def test_index_maintained_incrementally(self):
        table = table_of([("a", "b")])
        assert set(table.bucket({0: "a"})[0]) == {("a", "b")}
        table.add(("a", "c"))
        assert set(table.bucket({0: "a"})[0]) == {("a", "b"), ("a", "c")}


class TestAdjacency:
    def test_targets_and_rows(self):
        interner = Interner()
        table = table_of([("a", "b"), ("a", "c"), ("b", "c")], interner=interner)
        adjacency = table.adjacency(0)
        targets, rows = adjacency[interner.code_of("a")]
        assert targets == {"b", "c"}
        assert set(rows) == {("a", "b"), ("a", "c")}
        backwards = table.adjacency(1)
        targets, rows = backwards[interner.code_of("c")]
        assert targets == {"a", "b"}

    def test_adjacency_maintained_incrementally(self):
        interner = Interner()
        table = table_of([("a", "b")], interner=interner)
        table.adjacency(0)
        table.add(("a", "c"))
        targets, rows = table.adjacency(0)[interner.code_of("a")]
        assert targets == {"b", "c"}
        assert len(rows) == 2


class TestColumns:
    def test_column_codes_track_inserts(self):
        interner = Interner()
        table = table_of([("a", "b")], interner=interner)
        assert table.column_codes(0) == {interner.code_of("a")}
        table.add(("c", "b"))
        assert table.column_codes(0) == {interner.code_of("a"), interner.code_of("c")}
        assert table.column_codes(1) == {interner.code_of("b")}


class TestSnapshots:
    def test_snapshot_is_isolated_both_ways(self):
        table = table_of([("a", "b")])
        snap = table.snapshot()
        table.add(("x", "y"))
        snap.add(("p", "q"))
        assert table.row_set() == {("a", "b"), ("x", "y")}
        assert snap.row_set() == {("a", "b"), ("p", "q")}

    def test_snapshot_shares_until_first_write(self):
        table = table_of([("a", "b"), ("c", "d")])
        table.bucket({0: "a"})  # build an index
        snap = table.snapshot()
        assert snap._rows is table._rows  # shared storage
        snap.add(("e", "f"))
        assert snap._rows is not table._rows

    def test_snapshot_of_snapshot(self):
        table = table_of([("a", "b")])
        first = table.snapshot()
        second = first.snapshot()
        second.add(("c", "d"))
        assert first.row_set() == {("a", "b")}
        assert second.row_set() == {("a", "b"), ("c", "d")}


class TestRemoval:
    def test_remove_present_row(self):
        table = table_of([("a", "b"), ("c", "d")])
        assert table.remove(("a", "b"))
        assert len(table) == 1
        assert not table.contains(("a", "b"))
        assert list(table.all_rows()) == [("c", "d")]

    def test_remove_absent_row_is_a_no_op(self):
        table = table_of([("a", "b")])
        assert not table.remove(("a", "zzz"))  # value never interned
        assert not table.remove(("b", "a"))    # interned values, absent row
        assert len(table) == 1

    def test_remove_checks_arity(self):
        table = table_of([("a", "b")])
        try:
            table.remove(("a",))
        except ValueError:
            pass
        else:
            raise AssertionError("arity mismatch accepted")

    def test_subset_indexes_are_maintained(self):
        table = table_of([("a", "b"), ("a", "c"), ("d", "b")])
        rows, _ = table.bucket({0: "a"})
        assert sorted(rows) == [("a", "b"), ("a", "c")]
        table.remove(("a", "b"))
        rows, _ = table.bucket({0: "a"})
        assert rows == [("a", "c")]
        # the emptied bucket disappears rather than lingering as []
        rows, _ = table.bucket({1: "b"})
        assert rows == [("d", "b")]
        table.remove(("d", "b"))
        rows, token = table.bucket({1: "b"})
        assert rows == [] and token[1] is not None

    def test_adjacency_is_maintained(self):
        table = table_of([("a", "b"), ("a", "c"), ("x", "b")])
        adjacency = table.adjacency(0)
        code_a = table.interner.code_of("a")
        targets, bucket = adjacency[code_a]
        assert targets == {"b", "c"} and len(bucket) == 2
        table.remove(("a", "b"))
        targets, bucket = adjacency[code_a]
        assert targets == {"c"} and bucket == [("a", "c")]
        table.remove(("a", "c"))
        assert code_a not in table._adjacency[0]

    def test_lazy_adjacency_built_after_removal_is_correct(self):
        table = table_of([("a", "b"), ("a", "c"), ("x", "b")])
        table.remove(("a", "b"))
        adjacency = table.adjacency(1)  # built fresh, post-removal
        code_b = table.interner.code_of("b")
        targets, bucket = adjacency[code_b]
        assert targets == {"x"} and bucket == [("x", "b")]

    def test_column_codes_recompute_after_removal(self):
        table = table_of([("a", "b"), ("c", "b")])
        assert table.interner.extern_set(table.column_codes(0)) == {"a", "c"}
        table.remove(("a", "b"))
        assert table.interner.extern_set(table.column_codes(0)) == {"c"}
        assert table.interner.extern_set(table.column_codes(1)) == {"b"}

    def test_removal_from_shared_table_respects_cow(self):
        table = table_of([("a", "b"), ("c", "d")])
        snapshot = table.snapshot()
        assert table.remove(("a", "b"))
        assert snapshot.contains(("a", "b"))
        assert not table.contains(("a", "b"))
        # and the other direction: removing from the snapshot spares the source
        other = table.snapshot()
        assert other.remove(("c", "d"))
        assert table.contains(("c", "d"))

    def test_fully_bound_probe_builds_no_index(self):
        # membership probes (any arity, unary included) run on the row map
        for arity, row in ((1, ("a",)), (2, ("a", "b")), (3, ("a", "b", "c"))):
            table = table_of([row], arity=arity)
            bindings = dict(enumerate(row))
            rows, token = table.bucket(bindings)
            assert rows == [row]
            assert token == (frozenset(range(arity)), table.interner.row_code_of(row))
            missing = dict(enumerate(row))
            missing[arity - 1] = "zz"
            assert table.bucket(missing)[0] == []
            assert table._indexes == {}, f"arity {arity} probe built an index"

    def test_built_bucket_reads_only_built_indexes(self):
        table = table_of([("a", "b"), ("a", "c"), ("d", "b")])
        assert table.built_bucket({0: "a"}) is None
        assert table.built_bucket({0: "a", 1: "c"}) == [("a", "c")]
        assert table._indexes == {}
        table.bucket({0: "a"})
        table.add_many([("a", "e")])  # leaves the built index lagging
        assert table.built_bucket({0: "a"}) == [("a", "b"), ("a", "c"), ("a", "e")]
        assert table.built_bucket({0: "zz"}) == []
        assert table.built_bucket({1: "b"}) is None

    def test_mutation_epoch_tracks_effective_changes_only(self):
        table = table_of([("a", "b")])
        epoch = table.mutations
        assert not table.add(("a", "b"))          # duplicate
        assert not table.remove(("a", "zzz"))     # absent
        assert table.mutations == epoch
        table.add(("c", "d"))
        table.remove(("c", "d"))
        assert table.mutations == epoch + 2
        assert table.snapshot().mutations == table.mutations

    def test_remove_then_readd_round_trips(self):
        table = table_of([("a", "b")])
        table.bucket({0: "a"})  # build the subset index first
        assert table.remove(("a", "b"))
        assert table.add(("a", "b"))
        rows, _ = table.bucket({0: "a"})
        assert rows == [("a", "b")]
