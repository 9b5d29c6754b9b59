"""The interned row table: the kernel behind :class:`repro.datalog.database.Relation`.

An :class:`IntTable` stores an n-ary relation as a mapping from *interned*
rows (tuples of dense integer codes, see :mod:`repro.storage.interner`) to
their canonical object tuples.  All index structures are keyed by codes:

* **subset indexes** -- for any subset of bound argument positions, a hash
  index from the int key tuple to the bucket of matching rows (built lazily,
  maintained incrementally on insert *and* removal); buckets hold the
  canonical *object* rows so a retrieval hands rows back with zero per-row
  translation cost;
* **adjacency indexes** (binary tables only) -- per position, a map from a
  code to the *set* of values at the other position plus the bucket of
  matching rows.  The value sets are what makes node-set images one C-level
  ``set.union`` per frontier value instead of a Python loop per tuple;
* **column code sets** -- the distinct codes per argument position, which
  make active-domain computations O(distinct values) instead of O(rows).

Snapshots are copy-on-write: :meth:`snapshot` is O(1) and shares every
structure with the source table; whichever side mutates first pays a single
row-map copy (indexes are rebuilt lazily, exactly as the pre-kernel
``Relation.clone`` behaved).  This is what makes
:meth:`repro.datalog.database.Database.overlay` reads free until first write.

Buckets are Python lists and code sets are Python ``set`` objects rather than
``array('q')`` arrays: for the pure-Python interpreter the hash-set union and
membership primitives run in C and measured faster than array scans; the
representation is confined to this module so a packed-array (or NumPy)
variant can be swapped in behind the same accessors.
"""

from __future__ import annotations

import threading
from array import array
from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .interner import Interner, IntRow, global_interner

Row = Tuple[object, ...]
#: Identity of an index bucket, used by the bucket-level charging memo of
#: :class:`repro.datalog.database.Database`: (bound-position set, int key).
BucketToken = Tuple[Optional[FrozenSet[int]], Optional[IntRow]]

#: Token naming the "every row" bucket of a full scan.
FULL_SCAN: BucketToken = (None, None)

_EMPTY_ROWS: List[Row] = []

#: Serialises lazy index construction and lag catch-up across threads.
#: Evaluation itself is single-threaded, but tables are shared copy-on-write
#: between databases, so user threads querying different sessions or
#: overlays over one base database can *read* the same table at once.  The
#: first probe of a cold or lagging index mutates that shared state
#: (building the index dict, replaying the un-indexed tail in place), so
#: those cold paths -- and only those -- take this lock.  Hot-path reads of
#: an up-to-date index stay lock-free.  A single process-wide lock (rather
#: than per-table) is fine: the guarded work is rare and contention is
#: effectively zero.
_INDEX_LOCK = threading.Lock()

_SINGLE_POSITIONS: Dict[int, FrozenSet[int]] = {}


def _single_position(position: int) -> FrozenSet[int]:
    """Cached ``frozenset({position})`` singletons for one-column buckets."""
    cached = _SINGLE_POSITIONS.get(position)
    if cached is None:
        cached = frozenset((position,))
        _SINGLE_POSITIONS[position] = cached
    return cached


class IntTable:
    """An interned n-ary row store with incremental indexes and COW snapshots."""

    __slots__ = (
        "arity",
        "_interner",
        "_rows",
        "_indexes",
        "_index_lag",
        "_adjacency",
        "_columns",
        "_colarrays",
        "_shared",
        "_mutations",
        "stats",
    )

    def __init__(self, arity: int, interner: Optional[Interner] = None):
        self.arity = arity
        self._interner = interner if interner is not None else global_interner()
        # Interned row -> canonical object row (insertion-ordered).
        self._rows: Dict[IntRow, Row] = {}
        # Bound-position subset -> int key tuple -> bucket of object rows.
        self._indexes: Dict[FrozenSet[int], Dict[IntRow, List[Row]]] = {}
        # Lazily-maintained indexes: positions -> count of leading rows of
        # ``_rows`` (insertion order) the index reflects.  Bulk inserts mark
        # every index lagging instead of paying per-row maintenance; the
        # next probe catches the index up from the row-map tail, appending
        # in insertion order so buckets are bit-identical to eager upkeep.
        self._index_lag: Dict[FrozenSet[int], int] = {}
        # Position -> code -> (other-position value set, bucket of object rows).
        self._adjacency: Dict[int, Dict[int, Tuple[set, List[Row]]]] = {}
        # Per-position distinct code sets (lazy).
        self._columns: Optional[List[Set[int]]] = None
        # Parallel packed code columns over the rows in insertion order
        # (lazy; appended to on insert, dropped on removal).
        self._colarrays: Optional[List[array]] = None
        # True while the row map and indexes are shared with a snapshot.
        self._shared = False
        # Monotone mutation epoch: bumps on every effective add or remove.
        # Charging memos validate against it, which stays correct even when
        # several databases share one table copy-on-write (a sibling's
        # delete-then-refill restores a bucket's *size* but not its epoch).
        self._mutations = 0
        # The planner's cached statistics summary, read and written only by
        # :func:`repro.stats.table_stats` (which validates it against the
        # mutation epoch).  It follows the row map: snapshots share it, and
        # the copy-on-write unshare that gives a writer its own row map
        # drops it, so a dropped table frees its statistics too.
        self.stats: Optional[object] = None

    @property
    def interner(self) -> Interner:
        return self._interner

    @property
    def mutations(self) -> int:
        """The mutation epoch: total effective adds + removes ever applied."""
        return self._mutations

    @property
    def rows_map(self) -> Dict[IntRow, Row]:
        """The interned-row -> object-row map (live, read-only to callers).

        The canonical zero-copy view for engines that probe membership by
        code tuple or decode interned rows back to object rows.  Mutating it
        directly bypasses index maintenance and the mutation epoch; use
        :meth:`add`/:meth:`add_many`/:meth:`merge_novel_coded` instead.
        """
        return self._rows

    @property
    def can_bulk_merge(self) -> bool:
        """True when :meth:`merge_novel_coded` may bypass per-row upkeep.

        A shared (copy-on-write) table must pay its copy first, and a built
        adjacency cache needs per-row maintenance, so both send inserts
        through the checked :meth:`add_many` path instead.
        """
        return not self._shared and not self._adjacency

    # -- copy-on-write snapshots -------------------------------------------

    def snapshot(self) -> "IntTable":
        """An O(1) logically-independent copy sharing storage until a write."""
        dup = IntTable(self.arity, self._interner)
        dup._rows = self._rows
        dup._indexes = self._indexes
        dup._index_lag = self._index_lag
        dup._adjacency = self._adjacency
        dup._columns = self._columns
        dup._colarrays = self._colarrays
        dup._mutations = self._mutations
        dup.stats = self.stats
        dup._shared = True
        self._shared = True
        return dup

    def _unshare(self) -> None:
        """Pay the copy before the first mutation of a shared table."""
        self._rows = dict(self._rows)
        self._indexes = {}
        self._index_lag = {}
        self._adjacency = {}
        self._columns = None
        self._colarrays = None
        self.stats = None
        self._shared = False

    # -- mutation -----------------------------------------------------------

    def add(self, row: Row) -> bool:
        """Insert a row; returns True when it was new.  Enforces the arity."""
        if len(row) != self.arity:
            raise ValueError(
                f"table has arity {self.arity}, got tuple of length {len(row)}"
            )
        # Inlined copy of Interner.intern_row (skips the per-row method call;
        # keep in sync with it): this is the insert path of every stored tuple.
        interner = self._interner
        introw = interner._introw_of.get(row)
        if introw is None:
            code_map = interner._code_of
            allocate = interner.allocate
            codes = []
            for value in row:
                code = code_map.get(value)
                if code is None:
                    code = allocate(value)
                codes.append(code)
            introw = tuple(codes)
            interner._introw_of[row] = introw
        if introw in self._rows:
            return False
        if self._shared:
            self._unshare()
        self._mutations += 1
        self._rows[introw] = row
        lag = self._index_lag
        for positions, index in self._indexes.items():
            if lag and positions in lag:
                # A lagging index stays lagging: this row lands in the
                # un-indexed tail the next probe's catch-up will replay.
                continue
            key = tuple(introw[i] for i in sorted(positions))
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        for position, buckets in self._adjacency.items():
            code = introw[position]
            entry = buckets.get(code)
            if entry is None:
                buckets[code] = ({row[1 - position]}, [row])
            else:
                entry[0].add(row[1 - position])
                entry[1].append(row)
        if self._columns is not None:
            for position, code in enumerate(introw):
                self._columns[position].add(code)
        if self._colarrays is not None:
            for position, code in enumerate(introw):
                self._colarrays[position].append(code)
        return True

    def add_many(self, rows: Iterable[Row], distinct: bool = False) -> List[Row]:
        """Bulk :meth:`add`; returns the rows that were new, in order.

        Semantically ``[row for row in rows if self.add(row)]`` with the
        per-row call tower flattened: interner, row map and maintained
        index structures are hoisted into locals once per batch, and the
        per-index position ordering is computed once instead of per row.
        This is the insert path of the columnar batch executor, where a
        fixpoint round lands thousands of head rows at once.

        ``distinct=True`` promises that ``rows`` are pairwise distinct and
        none is already stored (the fixpoint runtime's per-round delta
        sink, which receives exactly the rows the main database just
        reported new).  The duplicate probe is skipped on a structure-free
        table; a lying caller corrupts the row map.
        """
        arity = self.arity
        interner = self._interner
        code_of = interner._code_of.__getitem__
        introw_of = interner._introw_of
        memo_get = introw_of.get
        rows_map = self._rows
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if (
            distinct
            and not self._shared
            and not self._indexes
            and not self._adjacency
            and self._columns is None
            and self._colarrays is None
        ):
            for row, introw in zip(rows, map(memo_get, rows)):
                if introw is None:
                    if len(row) != arity:
                        raise ValueError(
                            f"table has arity {arity},"
                            f" got tuple of length {len(row)}"
                        )
                    try:
                        introw = tuple(map(code_of, row))
                    except KeyError:
                        introw = interner.intern_row(row)
                    introw_of[row] = introw
                elif len(introw) != arity:
                    raise ValueError(
                        f"table has arity {arity},"
                        f" got tuple of length {len(introw)}"
                    )
                rows_map[introw] = row
            self._mutations += len(rows)
            return rows if isinstance(rows, list) else list(rows)
        if self._indexes and not self._shared:
            # Defer subset-index maintenance for the whole batch: mark every
            # index as lagging at the current row count and let the next
            # probe replay the tail (see ``_index_lag``).  A fixpoint's head
            # relation is often never probed again on the batch path, so
            # this turns per-row upkeep into nothing at all.
            lag = self._index_lag
            count = len(rows_map)
            for positions in self._indexes:
                if positions not in lag:
                    lag[positions] = count
        adjacency = self._adjacency if self._adjacency else None
        columns = self._columns
        colarrays = self._colarrays
        new_rows: List[Row] = []
        added = 0
        for row, introw in zip(rows, map(memo_get, rows)):
            if introw is None:
                if len(row) != arity:
                    raise ValueError(
                        f"table has arity {arity}, got tuple of length {len(row)}"
                    )
                try:
                    introw = tuple(map(code_of, row))
                except KeyError:
                    introw = interner.intern_row(row)
                introw_of[row] = introw
            elif len(introw) != arity:
                raise ValueError(
                    f"table has arity {arity}, got tuple of length {len(introw)}"
                )
            if introw in rows_map:
                continue
            if self._shared:
                self._unshare()  # drops the lazy structures with the sharing
                rows_map = self._rows
                adjacency = None
                columns = None
                colarrays = None
            added += 1
            rows_map[introw] = row
            new_rows.append(row)
            if adjacency is not None:
                for position, buckets in adjacency.items():
                    code = introw[position]
                    entry = buckets.get(code)
                    if entry is None:
                        buckets[code] = ({row[1 - position]}, [row])
                    else:
                        entry[0].add(row[1 - position])
                        entry[1].append(row)
            if columns is not None:
                for position, code in enumerate(introw):
                    columns[position].add(code)
            if colarrays is not None:
                for position, code in enumerate(introw):
                    colarrays[position].append(code)
        self._mutations += added
        return new_rows

    def merge_novel_coded(
        self,
        introws: Iterable[IntRow],
        rows: Iterable[Row],
        codes: "array",
        stride: int,
    ) -> int:
        """Bulk-merge pre-interned, pre-decoded rows known to be novel.

        The merge path of the parallel fixpoint offload: workers
        deduplicate exactly and ship disjoint shards, so every ``(introw,
        row)`` pair is new and the insert is a straight dict update over
        C-level zips.  ``codes``
        is the flat code array the pairs were decoded from (row-major,
        ``stride`` codes per row); column caches extend from its strided
        slices.  Built subset indexes are marked lagging for the usual
        :meth:`bucket`-time replay.  Requires :attr:`can_bulk_merge`; a
        caller lying about novelty corrupts the row map.  Returns the
        number of rows merged.
        """
        if not self.can_bulk_merge:
            raise ValueError(
                "merge_novel_coded requires an unshared table with no "
                "adjacency cache (check can_bulk_merge)"
            )
        if self._indexes:
            lag = self._index_lag
            count = len(self._rows)
            for positions in self._indexes:
                if positions not in lag:
                    lag[positions] = count
        before = len(self._rows)
        self._rows.update(zip(introws, rows))
        added = len(self._rows) - before
        self._mutations += added
        if self._columns is not None:
            for position, column in enumerate(self._columns):
                column.update(codes[position::stride])
        if self._colarrays is not None:
            for position, column in enumerate(self._colarrays):
                column.extend(codes[position::stride])
        return added

    def seed_coded_rows(
        self, introws: Iterable[IntRow], colarrays: List["array"]
    ) -> int:
        """Seed a fresh table columnarly from pre-interned rows, skipping decode.

        The scratch-table path of the parallel fixpoint offload's inner
        loop: the step-0 scan reads only the code columns, the interner and
        the row-map *keys*, so the object tuples are never decoded -- the
        row map is seeded with ``None`` values instead.  The table is only
        valid for frozen columnar scans afterwards (``all_rows`` would yield
        ``None``), and it must be fresh and structure-free.  Returns the row
        count.
        """
        if (
            self._rows
            or self._shared
            or self._indexes
            or self._adjacency
            or self._columns is not None
            or self._colarrays is not None
        ):
            raise ValueError("seed_coded_rows requires a fresh, structure-free table")
        self._rows = dict.fromkeys(introws)
        self._colarrays = list(colarrays)
        self._mutations += len(self._rows)
        return len(self._rows)

    def remove(self, row: Row) -> bool:
        """Delete a row; returns True when it was present.

        Index maintenance is incremental: every built subset index drops the
        row from its bucket (empty buckets are deleted so absent-key probes
        stay fast), adjacency entries shrink their bucket and drop the
        other-position value from the target set when no remaining row in the
        bucket carries it, and the lazy column code sets are invalidated (a
        code may or may not survive in other rows; recomputing on demand is
        cheaper than reference counting every insert).  Copy-on-write
        snapshots are honoured exactly as :meth:`add` honours them: a shared
        table pays its row-map copy before the first removal.
        """
        if len(row) != self.arity:
            raise ValueError(
                f"table has arity {self.arity}, got tuple of length {len(row)}"
            )
        introw = self._interner.row_code_of(row)
        if introw is None or introw not in self._rows:
            return False
        self._mutations += 1
        if self._shared:
            self._unshare()  # clears the lazy indexes; nothing else to fix up
            del self._rows[introw]
            self._columns = None
            return True
        if self._index_lag:
            # Deleting from the row map would shift the tail a lagging
            # index's watermark counts; bring every lagging index current
            # first (deletions are rare on the bulk-insert path).
            for positions in list(self._index_lag):
                self._index_for(positions)
        canonical = self._rows.pop(introw)
        for positions, index in self._indexes.items():
            key = tuple(introw[i] for i in sorted(positions))
            bucket = index[key]
            if len(bucket) == 1:
                del index[key]
            else:
                bucket.remove(canonical)
        for position, buckets in self._adjacency.items():
            code = introw[position]
            targets, bucket = buckets[code]
            if len(bucket) == 1:
                del buckets[code]
            else:
                bucket.remove(canonical)
                # Rows are deduplicated pairs, so the removed row was the
                # only one in this bucket carrying its other-position value.
                targets.discard(canonical[1 - position])
        self._columns = None
        self._colarrays = None
        return True

    # -- membership and iteration ------------------------------------------

    def contains(self, row: Row) -> bool:
        interner = self._interner
        introw = interner._introw_of.get(row)
        if introw is None:
            introw = interner.row_code_of(row)
        return introw is not None and introw in self._rows

    def all_rows(self) -> Iterable[Row]:
        """Every stored row, in insertion order (a live read-only view)."""
        return self._rows.values()

    def row_set(self) -> FrozenSet[Row]:
        """An immutable snapshot of the stored rows."""
        return frozenset(self._rows.values())

    def int_rows(self) -> Iterable[IntRow]:
        """The interned rows, in insertion order (a live read-only view)."""
        return self._rows.keys()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    # -- subset indexes ------------------------------------------------------

    def _index_for(self, positions: FrozenSet[int]) -> Dict[IntRow, List[Row]]:
        # Cold path only: hot probes hit an up-to-date index straight off
        # ``self._indexes`` in :meth:`bucket`.  Everything here mutates state
        # that concurrent readers may share, so it runs under _INDEX_LOCK,
        # re-reading the index and lag inside the lock.  The lag entry is
        # deleted only *after* the tail replay, so a lock-free reader that
        # observes an empty lag is guaranteed a fully caught-up index.
        with _INDEX_LOCK:
            index = self._indexes.get(positions)
            if index is not None and positions in self._index_lag:
                # Catch a lagging index up: replay the un-indexed row-map tail
                # in insertion order, exactly the appends eager upkeep would
                # have made (so bucket contents and ordering are identical).
                behind = self._index_lag[positions]
                tail = islice(self._rows.items(), behind, None)
                ordered = sorted(positions)
                if len(ordered) == 1:
                    position = ordered[0]
                    for introw, row in tail:
                        key = (introw[position],)
                        bucket = index.get(key)
                        if bucket is None:
                            index[key] = [row]
                        else:
                            bucket.append(row)
                else:
                    for introw, row in tail:
                        key = tuple(introw[i] for i in ordered)
                        bucket = index.get(key)
                        if bucket is None:
                            index[key] = [row]
                        else:
                            bucket.append(row)
                del self._index_lag[positions]
            if index is None:
                index = {}
                ordered = sorted(positions)
                if len(ordered) == 1:
                    # Single-column indexes dominate the join path; build them
                    # without the per-row key genexpr.
                    position = ordered[0]
                    for introw, row in self._rows.items():
                        key = (introw[position],)
                        bucket = index.get(key)
                        if bucket is None:
                            index[key] = [row]
                        else:
                            bucket.append(row)
                else:
                    for introw, row in self._rows.items():
                        key = tuple(introw[i] for i in ordered)
                        bucket = index.get(key)
                        if bucket is None:
                            index[key] = [row]
                        else:
                            bucket.append(row)
                self._indexes[positions] = index
        return index

    def bucket(self, bindings: Dict[int, object]) -> Tuple[List[Row], BucketToken]:
        """The rows matching ``bindings`` plus the bucket's identity token.

        ``bindings`` maps argument positions to required constant values.  The
        returned list is the *live* internal bucket (callers must copy before
        exposing it); the token identifies the bucket for charging memos.  A
        binding value the interner has never seen matches nothing.
        """
        if not bindings:
            return list(self._rows.values()), FULL_SCAN
        code_map = self._interner._code_of
        if len(bindings) == self.arity:
            # Fully-bound membership probe (any arity, unary included): the
            # interned row map *is* the index, so never build (or repair) a
            # whole-row subset index for it.  The charging token matches the
            # bucket the index would have held -- zero or one row.
            positions = frozenset(bindings)
            key: List[int] = []
            for position in sorted(bindings):
                code = code_map.get(bindings[position])
                if code is None:
                    return _EMPTY_ROWS, (positions, None)
                key.append(code)
            int_key = tuple(key)
            row = self._rows.get(int_key)
            if row is None:
                return _EMPTY_ROWS, (positions, int_key)
            return [row], (positions, int_key)
        if len(bindings) == 1:
            # The overwhelmingly common shape on the join path.
            [(position, value)] = bindings.items()
            positions = _SINGLE_POSITIONS.get(position)
            if positions is None:
                positions = _single_position(position)
            code = code_map.get(value)
            if code is None:
                return _EMPTY_ROWS, (positions, None)
            int_key = (code,)
        else:
            positions = frozenset(bindings)
            key: List[int] = []
            for position in sorted(positions):
                code = code_map.get(bindings[position])
                if code is None:
                    return _EMPTY_ROWS, (positions, None)
                key.append(code)
            int_key = tuple(key)
        index = self._indexes.get(positions)
        if index is None or self._index_lag:
            index = self._index_for(positions)
        bucket = index.get(int_key)
        if bucket is None:
            return _EMPTY_ROWS, (positions, int_key)
        return bucket, (positions, int_key)

    def built_bucket(self, bindings: Dict[int, object]) -> Optional[List[Row]]:
        """The live bucket of ``bindings`` if reading it builds no index.

        A peek in the manner of :meth:`built_adjacency`: a fully-bound probe
        reads the row map and a built subset index serves its bucket (a
        lagging one is caught up first, as on every probe), but a missing
        index is not built -- ``None`` tells the caller to filter the rows
        itself, which costs less than building an index to read it once.
        """
        if len(bindings) != self.arity and frozenset(bindings) not in self._indexes:
            return None
        return self.bucket(bindings)[0]

    # -- adjacency (binary fast path) ----------------------------------------

    def built_adjacency(
        self, position: int
    ) -> Optional[Dict[int, Tuple[set, List[Row]]]]:
        """The adjacency index at ``position`` if already built, else ``None``.

        A peek that never triggers the cold build: statistics sketches and
        charging-memo validity checks want to *reuse* a warm index, not pay
        for one.
        """
        return self._adjacency.get(position)

    def adjacency(self, position: int) -> Dict[int, Tuple[set, List[Row]]]:
        """code-at-``position`` -> (values at the other position, bucket rows).

        Only defined for binary tables; built lazily, maintained on insert.
        """
        if self.arity != 2:
            raise ValueError("adjacency indexes are defined for binary tables only")
        buckets = self._adjacency.get(position)
        if buckets is None:
            # Cold build; locked so concurrent first probes from user threads
            # sharing this table build the structure once (see _INDEX_LOCK).
            with _INDEX_LOCK:
                buckets = self._adjacency.get(position)
                if buckets is None:
                    buckets = {}
                    other = 1 - position
                    for introw, row in self._rows.items():
                        code = introw[position]
                        entry = buckets.get(code)
                        if entry is None:
                            buckets[code] = ({row[other]}, [row])
                        else:
                            entry[0].add(row[other])
                            entry[1].append(row)
                    self._adjacency[position] = buckets
        return buckets

    # -- column code sets ------------------------------------------------------

    def column_codes(self, position: int) -> Set[int]:
        """The distinct codes stored at ``position`` (live read-only view)."""
        if self._columns is None:
            columns: List[Set[int]] = [set() for _ in range(self.arity)]
            for introw in self._rows:
                for index, code in enumerate(introw):
                    columns[index].add(code)
            self._columns = columns
        return self._columns[position]

    # -- packed code columns ---------------------------------------------------

    def column_arrays(self) -> List[array]:
        """Parallel ``array('q')`` code columns over the rows, insertion order.

        ``column_arrays()[p][i]`` is the interned code of row ``i``'s value at
        position ``p``; externing a whole column is one gather through
        :attr:`Interner._value_of`.  Built lazily in one pass, then maintained
        incrementally: inserts append to every column (so a growing fixpoint
        relation keeps its columns warm across rounds), removals and
        copy-on-write unsharing drop the cache.  The returned arrays are live
        internal state -- callers must treat them as read-only and must not
        hold them across table mutations.
        """
        arrays = self._colarrays
        if arrays is None:
            arrays = [array("q") for _ in range(self.arity)]
            for introw in self._rows:
                for position, code in enumerate(introw):
                    arrays[position].append(code)
            self._colarrays = arrays
        return arrays

    def __repr__(self) -> str:
        return f"IntTable(arity={self.arity}, rows={len(self._rows)})"
