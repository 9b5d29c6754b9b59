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
* :class:`KernelProbe` (built by :func:`build_probes`) is one keyed
  ``Database.scan`` of the ``kernel`` storage mode reduced to an index
  lookup plus the bucket-level charging memo, and :class:`SilentProbe` the
  same lookup without charging, for runtime-internal scratch databases;
* :class:`BatchScan` probes a relation once per *distinct* join key of a
  binding batch through :meth:`Database.scan
  <repro.datalog.database.Database.scan>` and charges repeat keys by
  bucket size -- the generic path for the scans the probes do not cover
  (in both the ``kernel`` and ``reference`` storage modes).

Every charge is applied directly: a batch never runs over a plan whose
later scan steps read rows the consumer inserts during the same firing
(see :meth:`repro.datalog.plans.JoinPlan.head_batch`), so a batch is never
abandoned and nothing needs buffering.

Counter parity is the load-bearing contract of this module: every scan
charges ``fact_retrievals`` / ``distinct_facts`` exactly as the equivalent
sequence of :meth:`Database.scan` calls would, which the differential suites
(``tests/engines/test_plan_differential.py`` and the property suite under
``tests/property/``) assert for answers *and* counters on every workload.
"""

from __future__ import annotations

from itertools import repeat as _repeat
from typing import Dict, List, Optional, Tuple

Row = Tuple[object, ...]


def extern_columns(table, positions: Tuple[int, ...]) -> List[list]:
    """Bulk-extract object-value columns for ``positions`` of ``table``.

    One gather per column through the packed code arrays and the interner's
    code->value table; the result lists are index-parallel with the table's
    insertion order (the order ``Database.scan`` returns a full scan in).
    """
    arrays = table.column_arrays()
    values = table.interner._value_of
    return [[values[code] for code in arrays[position]] for position in positions]


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
    hoisted locals.  Used for keyed scan steps and negation probes with no
    intra-row equality under the kernel storage mode, where every probe
    corresponds to exactly one ``Database.scan`` call of the row-at-a-time
    executor; the memo tokens, ``_touched`` entries and counter bumps land
    bit-identically.

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


def build_probes(
    sources, predicate: str, positions: Tuple[int, ...], visible
) -> Optional[list]:
    """One probe per source holding the relation.

    ``visible`` is the counters object whose charges the caller can observe
    (the engine-facing database's): a source charging it gets a
    :class:`KernelProbe`, cached on the database while the relation is
    unchanged; a source charging a different object is a runtime-internal
    scratch store and gets the bookkeeping-free :class:`SilentProbe`.  An
    absent relation contributes no probe (its scans return nothing and
    charge nothing).  Returns ``None`` when the sources' tables do not share
    one interner -- then a caller-interned key would be meaningless and the
    generic scan path must be used (never the case for Database-built
    tables, which all use the global interner).
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
            # Reuse the probe while the relation is untouched: its charging
            # state (counters, touched-set, memo) is all keyed off objects
            # stable between mutations, and a warm key memo charges repeats
            # exactly like the bucket memo would (see
            # :meth:`KernelProbe.lookup`).
            cache = db._probe_cache
            cache_key = (predicate, positions)
            hit = cache.get(cache_key)
            if hit is not None and hit[0] is relation and hit[1] == table.mutations:
                probes.append(hit[2])
            else:
                probe = KernelProbe(db, relation, positions)
                cache[cache_key] = (relation, table.mutations, probe)
                probes.append(probe)
        else:
            probes.append(SilentProbe(relation, positions))
    return probes


class BatchScan:
    """Distinct-key probe cache for one scan step over one binding batch.

    The generic scan path of the batch executor: steps with no join key or
    with an intra-row equality, and every keyed step under the
    ``reference`` storage mode.  The row-at-a-time executor re-scans the
    relation for every binding row; once a bucket has been fully charged, a
    repeat scan only bumps ``fact_retrievals`` by the number of rows it
    returns (the bucket-memo shortcut in kernel mode, the re-walk of
    already-touched rows in reference mode -- the two are
    counter-identical).  This cache therefore scans each distinct key once
    through :meth:`Database.scan` and replays repeats as per-source
    retrieval bumps.
    """

    __slots__ = ("predicate", "intra_eq", "sources", "cache")

    def __init__(self, predicate, intra_eq, sources) -> None:
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
        predicate = self.predicate
        intra_eq = self.intra_eq
        rows: List[Row] = []
        lens = []
        for db in self.sources:
            found = db.scan(predicate, bindings, intra_eq)
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
        for db, count in hit[1]:
            if count:
                db.counters.fact_retrievals += count
