"""Columnar batch primitives for the compiled join-plan executor.

The row-at-a-time executor of :mod:`repro.datalog.plans` spends most of its
time in per-binding Python overhead: one ``Database.scan`` call (bindings
dict build, bucket lookup, charging memo, snapshot copy) and one generator
resumption per candidate row.  The columnar mode replaces that inner loop
with whole-batch operations over parallel value columns:

* :func:`extern_columns` bulk-extracts a relation's columns through the
  packed ``array('q')`` code columns of :meth:`IntTable.column_arrays
  <repro.storage.table.IntTable.column_arrays>` -- one gather through the
  interner's value table per column instead of one tuple indexing per row;
* :class:`BatchScan` probes a relation once per *distinct* join key of a
  binding batch and charges repeat keys by bucket size, replicating the
  bucket-level charging memo of :meth:`Database.scan
  <repro.datalog.database.Database.scan>` bit for bit (in both the
  ``kernel`` and ``reference`` storage modes);
* :class:`PendingCharges` makes a whole batch execution *transactional*:
  every retrieval charge, distinct-fact touch and charging-memo update is
  buffered against the scanned database and either committed atomically or
  discarded, so an optimistic batch over a self-feeding plan (one whose
  later scan steps read the relation the consumer is inserting into) can be
  abandoned without a trace and re-run row by row.

Counter parity is the load-bearing contract of this module: every scan
charges ``fact_retrievals`` / ``distinct_facts`` exactly as the equivalent
sequence of :meth:`Database.scan` calls would, which the differential suites
(``tests/engines/test_plan_differential.py`` and the property suite under
``tests/property/``) assert for answers *and* counters on every workload.
"""

from __future__ import annotations

from itertools import repeat as _repeat
from typing import Dict, List, Optional, Tuple

from .runtime import MODE_KERNEL
from . import runtime as _storage_runtime
from .table import FULL_SCAN

Row = Tuple[object, ...]

_NO_BINDINGS: Dict[int, object] = {}


def extern_columns(table, positions: Tuple[int, ...]) -> List[list]:
    """Bulk-extract object-value columns for ``positions`` of ``table``.

    One gather per column through the packed code arrays and the interner's
    code->value table; the result lists are index-parallel with the table's
    insertion order (the order ``Database.scan`` returns a full scan in).
    """
    arrays = table.column_arrays()
    values = table.interner._value_of
    return [[values[code] for code in arrays[position]] for position in positions]


class _DbCharges:
    """Buffered charges against one database (one side of a batch scan)."""

    __slots__ = ("db", "retrievals", "distinct", "touched", "memo")

    def __init__(self, db):
        self.db = db
        self.retrievals = 0
        self.distinct = 0
        # Newly touched (predicate, row) keys, in first-touch order.
        self.touched: List[Tuple[str, Row]] = []
        # (predicate, token) -> (bucket size, mutation epoch) memo updates.
        self.memo: Dict[Tuple[str, object], Tuple[int, int]] = {}


class PendingCharges:
    """Transactional charging: buffer everything, commit or discard atomically.

    Used for batch executions that may be *aborted* (the probe-overlap
    verification of self-feeding plans): until :meth:`commit`, no counter,
    no ``_touched`` entry and no charging-memo stamp of any scanned database
    is modified, so discarding the object leaves every database exactly as
    the row-at-a-time executor will find it on the re-run.
    """

    __slots__ = ("_by_db",)

    def __init__(self) -> None:
        self._by_db: Dict[int, _DbCharges] = {}

    def _pending(self, db) -> _DbCharges:
        pending = self._by_db.get(id(db))
        if pending is None:
            pending = self._by_db[id(db)] = _DbCharges(db)
        return pending

    def scan(
        self,
        db,
        predicate: str,
        bindings: Optional[Dict[int, object]],
        intra_eq: Tuple[Tuple[int, int], ...] = (),
    ) -> List[Row]:
        """Replicate :meth:`Database.scan` with buffered charging.

        Kept in lockstep with the original: same bucket lookup, same
        snapshot behaviour, same bucket-level memo semantics under the
        ``kernel`` storage mode and same per-row walk under ``reference`` --
        except that every side effect lands in this buffer.
        """
        relation = db.relations.get(predicate)
        if relation is None:
            return []
        candidates, token = relation.table.bucket(bindings or _NO_BINDINGS)
        pending = self._pending(db)
        if intra_eq:
            result = [
                row
                for row in candidates
                if all(row[position] == row[other] for position, other in intra_eq)
            ]
            self._charge_rows(pending, predicate, result)
            return result
        result = candidates if token is FULL_SCAN else list(candidates)
        if _storage_runtime._mode == MODE_KERNEL:
            stamp = (len(result), relation.table.mutations)
            key = (predicate, token)
            known = pending.memo.get(key)
            if known is None:
                known = db._charged.get(predicate, _NO_BINDINGS).get(token)
            if known == stamp:
                pending.retrievals += stamp[0]
            else:
                self._charge_rows(pending, predicate, result)
                pending.memo[key] = stamp
        else:
            self._charge_rows(pending, predicate, result)
        return result

    def bump(self, db, amount: int) -> None:
        """Charge a repeat retrieval of an already-charged bucket."""
        self._pending(db).retrievals += amount

    def _charge_rows(self, pending: _DbCharges, predicate: str, rows) -> None:
        # Bucket rows never repeat, so the fresh keys are one C-level set
        # difference; they join the database's touched set now and the
        # rollback list in case of discard.
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        db_touched = pending.db._touched
        new_keys = set(zip(_repeat(predicate), rows))
        new_keys -= db_touched
        if new_keys:
            db_touched |= new_keys
            pending.touched.extend(new_keys)
            pending.distinct += len(new_keys)
        pending.retrievals += len(rows)

    def commit(self) -> None:
        """Apply every buffered charge to its database."""
        for pending in self._by_db.values():
            db = pending.db
            counters = db.counters
            counters.fact_retrievals += pending.retrievals
            counters.distinct_facts += pending.distinct
            for (predicate, token), stamp in pending.memo.items():
                charged = db._charged.get(predicate)
                if charged is None:
                    charged = db._charged[predicate] = {}
                charged[token] = stamp
        self._by_db.clear()

    def discard(self) -> None:
        """Drop every buffered charge, undoing the speculative touches."""
        for pending in self._by_db.values():
            db_touched = pending.db._touched
            for key in pending.touched:
                db_touched.discard(key)
        self._by_db.clear()


class DirectCharges:
    """The non-transactional charging channel: scans go straight through.

    Used for batch executions that can never abort (plans whose later scan
    steps provably cannot observe the rows the consumer is inserting):
    ``scan`` *is* :meth:`Database.scan`, so parity is by construction.
    """

    __slots__ = ()

    def scan(
        self,
        db,
        predicate: str,
        bindings: Optional[Dict[int, object]],
        intra_eq: Tuple[Tuple[int, int], ...] = (),
    ) -> List[Row]:
        return db.scan(predicate, bindings, intra_eq)

    def bump(self, db, amount: int) -> None:
        db.counters.fact_retrievals += amount

    def commit(self) -> None:
        pass

    def discard(self) -> None:  # pragma: no cover - safe plans never abort
        pass


#: Shared stateless instance -- DirectCharges carries no per-batch state.
DIRECT_CHARGES = DirectCharges()


class SilentProbe:
    """Raw index probe for a runtime-internal scratch database.

    The stratified runtime's delta/frontier stores are fresh ``Database()``
    objects whose counters, touched-sets and charging memos are discarded
    with the round -- :meth:`Database.scan` against them does bookkeeping
    nobody can observe.  When a batch source's counters object is not the
    observable one, this probe replaces :class:`KernelProbe` and skips the
    bookkeeping entirely; results are bit-identical to the charged probe's.
    """

    charging = False

    __slots__ = ("code_map", "rows_map", "index")

    def __init__(self, relation, positions: Tuple[int, ...]):
        table = relation.table
        self.code_map = table._interner._code_of
        if len(positions) == table.arity:
            self.rows_map = table._rows
            self.index = None
        else:
            self.rows_map = None
            self.index = table._index_for(frozenset(positions))

    def lookup(self, int_key):
        if int_key is None:
            return None
        index = self.index
        if index is not None:
            return index.get(int_key)
        row = self.rows_map.get(int_key)
        return None if row is None else (row,)


class KernelProbe:
    """Inline indexed probe-and-charge for one (database, relation) pair.

    This is :meth:`Database.scan`'s kernel-mode path with the per-probe
    call tower peeled away: no bindings dictionary, no relation lookup, no
    ``bucket`` dispatch -- just a subset-index (or row-map, for fully-bound
    probes) lookup plus the bucket-level charging memo, inlined against
    hoisted locals.  Only used on the direct-charging batch path (kernel
    storage mode, no pending transaction, no intra-row equality), where
    every probe corresponds to exactly one ``Database.scan`` call of the
    row-at-a-time executor; the memo tokens, ``_touched`` entries and
    counter bumps land bit-identically.

    Callers intern probe keys through :attr:`code_map` themselves (so a
    batch interns each join value once, not once per source) and pass the
    interned key tuple -- or ``None`` when any component value is unknown
    to the interner, which matches the ``(positions, None)`` empty-bucket
    token of :meth:`IntTable.bucket`.
    """

    charging = True

    __slots__ = (
        "code_map",
        "rows_map",
        "index",
        "counters",
        "touched",
        "charged",
        "mutations",
        "predicate",
        "positions",
        "local",
    )

    def __init__(self, db, relation, positions: Tuple[int, ...]):
        table = relation.table
        self.code_map = table._interner._code_of
        pos_set = frozenset(positions)
        if len(positions) == table.arity:
            # Fully-bound membership probe: the row map is the index
            # (Database.scan never builds a whole-row subset index either).
            self.rows_map = table._rows
            self.index = None
        else:
            self.rows_map = None
            self.index = table._index_for(pos_set)
        self.counters = db.counters
        self.touched = db._touched
        charged = db._charged.get(relation.name)
        if charged is None:
            charged = db._charged[relation.name] = {}
        self.charged = charged
        self.mutations = table.mutations
        self.predicate = relation.name
        self.positions = pos_set
        # Per-batch key memo: the table cannot mutate while this probe is
        # alive (one step of one batch), so a key's bucket and stamp are
        # fixed -- after the first resolution a repeat key is one dict hit
        # plus the retrieval bump the charging memo would make anyway.
        self.local = {}

    def lookup(self, int_key):
        """The bucket for an interned key tuple, charged exactly like a scan.

        Returns a live read-only row sequence (or ``None`` when empty);
        valid as long as the table is not mutated, which the batch
        consumption contract guarantees.
        """
        hit = self.local.get(int_key)
        if hit is not None:
            rows, n = hit
            if n:
                self.counters.fact_retrievals += n
            return rows
        if int_key is None:
            rows = None
        elif self.index is not None:
            rows = self.index.get(int_key)
        else:
            row = self.rows_map.get(int_key)
            rows = None if row is None else (row,)
        token = (self.positions, int_key)
        if rows is None:
            self.local[int_key] = (None, 0)
            # Empty bucket: zero retrievals either way; stamp the memo the
            # way the scan path would.
            stamp = (0, self.mutations)
            if self.charged.get(token) != stamp:
                self.charged[token] = stamp
            return None
        stamp = (len(rows), self.mutations)
        self.local[int_key] = (rows, stamp[0])
        counters = self.counters
        if self.charged.get(token) == stamp:
            counters.fact_retrievals += stamp[0]
            return rows
        touched = self.touched
        before = len(touched)
        touched.update(zip(_repeat(self.predicate), rows))
        counters.fact_retrievals += stamp[0]
        counters.distinct_facts += len(touched) - before
        self.charged[token] = stamp
        return rows


class BufferedProbe:
    """:class:`KernelProbe` against a :class:`PendingCharges` transaction.

    Same inline bucket lookups, but every charge lands in the pending
    buffer: retrievals/distinct accumulate on the per-database
    :class:`_DbCharges`, newly touched keys go onto its rollback list, and
    memo stamps overlay ``db._charged`` without writing it.  Kept in
    lockstep with :meth:`PendingCharges.scan`'s kernel path -- commit or
    discard behave identically whether a scan went through this probe or
    through the generic path.
    """

    charging = True

    __slots__ = (
        "code_map",
        "rows_map",
        "index",
        "predicate",
        "positions",
        "mutations",
        "pending",
        "base_charged",
        "db_touched",
        "local",
    )

    def __init__(self, db, relation, positions: Tuple[int, ...], charges):
        table = relation.table
        self.code_map = table._interner._code_of
        pos_set = frozenset(positions)
        if len(positions) == table.arity:
            self.rows_map = table._rows
            self.index = None
        else:
            self.rows_map = None
            self.index = table._index_for(pos_set)
        self.predicate = relation.name
        self.positions = pos_set
        self.mutations = table.mutations
        self.pending = charges._pending(db)
        # Committed memo state is read-only during a pending batch (nothing
        # writes db._charged until commit), so snapshot the view once.
        self.base_charged = db._charged.get(relation.name) or _NO_BINDINGS
        self.db_touched = db._touched
        # Per-batch key memo, exactly as on :class:`KernelProbe`.
        self.local = {}

    def lookup(self, int_key):
        hit = self.local.get(int_key)
        if hit is not None:
            rows, n = hit
            if n:
                self.pending.retrievals += n
            return rows
        if int_key is None:
            rows = None
        elif self.index is not None:
            rows = self.index.get(int_key)
        else:
            row = self.rows_map.get(int_key)
            rows = None if row is None else (row,)
        token = (self.positions, int_key)
        key = (self.predicate, token)
        pending = self.pending
        if rows is None:
            self.local[int_key] = (None, 0)
            stamp = (0, self.mutations)
            known = pending.memo.get(key)
            if known is None:
                known = self.base_charged.get(token)
            if known != stamp:
                pending.memo[key] = stamp
            return None
        stamp = (len(rows), self.mutations)
        self.local[int_key] = (rows, stamp[0])
        known = pending.memo.get(key)
        if known is None:
            known = self.base_charged.get(token)
        if known == stamp:
            pending.retrievals += stamp[0]
            return rows
        db_touched = self.db_touched
        new_keys = set(zip(_repeat(self.predicate), rows))
        new_keys -= db_touched
        if new_keys:
            db_touched |= new_keys
            pending.touched.extend(new_keys)
            pending.distinct += len(new_keys)
        pending.retrievals += stamp[0]
        pending.memo[key] = stamp
        return rows


def build_probes(
    sources, predicate: str, positions: Tuple[int, ...], visible, pending=None
) -> Optional[list]:
    """One probe per source holding the relation.

    ``visible`` is the counters object whose charges the caller can observe
    (the engine-facing database's); a source charging a different object is
    a runtime-internal scratch store and gets the bookkeeping-free
    :class:`SilentProbe` instead of a charging probe.  Visible sources get a
    :class:`KernelProbe` (charges applied directly) or, when ``pending`` is
    a :class:`PendingCharges` transaction, a :class:`BufferedProbe` whose
    charges land in that buffer.  An absent relation contributes no probe
    (its scans return nothing and charge nothing).  Returns ``None`` when
    the sources' tables do not share one interner -- then a caller-interned
    key would be meaningless and the generic scan path must be used (never
    the case for Database-built tables, which all use the global interner).
    """
    probes: list = []
    interner = None
    for db in sources:
        relation = db.relations.get(predicate)
        if relation is None:
            continue
        table = relation.table
        if interner is None:
            interner = table._interner
        elif table._interner is not interner:
            return None
        if db.counters is visible:
            if pending is None:
                # Reuse the probe while the relation is untouched: its
                # charging state (counters, touched-set, committed memo)
                # is all keyed off objects stable between mutations, and a
                # warm key memo charges repeats exactly like the committed
                # bucket memo would (see :meth:`KernelProbe.lookup`).
                cache = db._probe_cache
                cache_key = (predicate, positions)
                hit = cache.get(cache_key)
                if (
                    hit is not None
                    and hit[0] is relation
                    and hit[1] == table.mutations
                ):
                    probes.append(hit[2])
                else:
                    probe = KernelProbe(db, relation, positions)
                    cache[cache_key] = (relation, table.mutations, probe)
                    probes.append(probe)
            else:
                probes.append(BufferedProbe(db, relation, positions, pending))
        else:
            probes.append(SilentProbe(relation, positions))
    return probes


class BatchScan:
    """Distinct-key probe cache for one scan step over one binding batch.

    The row-at-a-time executor re-scans the relation for every binding row;
    once a bucket has been fully charged, a repeat scan only bumps
    ``fact_retrievals`` by the number of rows it returns (the bucket-memo
    shortcut in kernel mode, the re-walk of already-touched rows in
    reference mode -- the two are counter-identical).  This cache therefore
    scans each distinct key once through the charging channel and replays
    repeats as per-source retrieval bumps.
    """

    __slots__ = ("charges", "predicate", "intra_eq", "sources", "cache")

    def __init__(self, charges, predicate, intra_eq, sources) -> None:
        self.charges = charges
        self.predicate = predicate
        self.intra_eq = intra_eq
        #: The databases this step reads, in scan order (main before delta).
        self.sources = sources
        #: key -> (rows, ((db, per-source row count), ...)); the hot loop in
        #: plans.py reads this dict directly and calls miss/replay itself so
        #: cache hits never build a bindings dictionary.
        self.cache: Dict[object, Tuple[List[Row], Tuple[Tuple[object, int], ...]]] = {}

    def miss(self, key, bindings: Optional[Dict[int, object]]) -> List[Row]:
        """Scan all sources for ``bindings``, caching the result under ``key``."""
        charges = self.charges
        predicate = self.predicate
        intra_eq = self.intra_eq
        rows: List[Row] = []
        lens = []
        for db in self.sources:
            found = charges.scan(db, predicate, bindings, intra_eq)
            lens.append((db, len(found)))
            if found:
                rows = found if not rows else rows + found
        self.cache[key] = (rows, tuple(lens))
        return rows

    def replay(self, hit: Tuple[List[Row], Tuple[Tuple[object, int], ...]]) -> None:
        """Charge a repeat probe of an already-scanned key.

        A repeat :meth:`Database.scan` of a fully charged bucket costs
        ``fact_retrievals += len(result)`` per source and nothing else, in
        both storage modes; replaying that charge is all a cache hit owes.
        """
        charges = self.charges
        for db, count in hit[1]:
            if count:
                charges.bump(db, count)
