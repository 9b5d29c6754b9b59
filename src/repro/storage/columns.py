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
* :func:`build_probe` hands each keyed scan step and each negation one probe
  of the database it reads: a :class:`KernelProbe` -- one keyed
  ``Database.scan`` reduced to an index lookup plus the bucket-level
  charging memo -- or, for a runtime-internal scratch database, a
  :class:`SilentProbe`, the same lookup without charging.  Both apply the
  step's intra-row equalities to a bucket before anything sees it, so a
  probe returns exactly the rows the ``Database.scan`` it stands for
  returns.

Only the columnar executor builds probes.  The reference evaluation
(``configured(execution="interpreted")``) drives ``Database.scan`` and
``Database.image`` through their memo-free loops instead, so it checks the
probes' charging against an oracle that shares none of their state.  Every
charge is applied directly: a batch never runs over a plan whose later scan
steps read rows the consumer inserts during the same firing (see
:meth:`repro.datalog.plans.JoinPlan.head_batch`), so a batch is never
abandoned and nothing needs buffering.

Counter parity is the load-bearing contract of this module: every probe
charges ``fact_retrievals`` / ``distinct_facts`` exactly as the equivalent
sequence of :meth:`Database.scan` calls would, which the differential suites
(``tests/engines/test_plan_differential.py``, the property suite under
``tests/property/`` and the interpreted cell of
``tests/storage/test_storage_differential.py``) assert for answers *and*
counters on every workload.
"""

from __future__ import annotations

from itertools import repeat as _repeat
from typing import List, Optional, Tuple

from .interner import global_interner


def extern_columns(table, positions: Tuple[int, ...]) -> List[list]:
    """Bulk-extract object-value columns for ``positions`` of ``table``.

    One gather per column through the packed code arrays and the interner's
    code->value table; the result lists are index-parallel with the table's
    insertion order (the order ``Database.scan`` returns a full scan in).
    """
    arrays = table.column_arrays()
    values = table.interner._value_of
    return [[values[code] for code in arrays[position]] for position in positions]


class _EqualityFilter:
    """A subset index read through a step's intra-row equalities.

    ``get`` returns the bucket's rows whose components agree at every
    ``(position, other)`` pair -- the filter ``Database.scan`` applies for a
    repeated variable -- or ``None`` when none do.  Probes hold it in place
    of the raw index, so every lookup path, the executor's raw ``index.get``
    loop included, sees filtered buckets.
    """

    __slots__ = ("index", "intra_eq")

    def __init__(self, index, intra_eq: Tuple[Tuple[int, int], ...]):
        self.index = index
        self.intra_eq = intra_eq

    def get(self, key):
        bucket = self.index.get(key)
        if bucket is None:
            return None
        intra_eq = self.intra_eq
        rows = [
            row
            for row in bucket
            if all(row[position] == row[other] for position, other in intra_eq)
        ]
        return rows or None


def _probe_access(table, positions: Tuple[int, ...], intra_eq):
    """``(rows_map, index)`` for a probe: the row map for a fully-bound key
    (``Database.scan`` never builds a whole-row subset index either, and no
    repeated variable is left unbound to filter on), else the subset index,
    filtered when the step has intra-row equalities."""
    if table.interner is not global_interner():
        # The executor threads interned code columns from step to step.
        raise ValueError("batch probes read only tables of the process-wide interner")
    if len(positions) == table.arity:
        return table._rows, None
    index = table._index_for(frozenset(positions))
    return None, (_EqualityFilter(index, intra_eq) if intra_eq else index)


class SilentProbe:
    """Raw index probe for a runtime-internal scratch database.

    The stratified runtime's delta/frontier stores are fresh ``Database()``
    objects whose counters, touched-sets and charging memos are discarded
    with the round -- :meth:`Database.scan` against them does bookkeeping
    nobody can observe.  When a batch source's counters object is not the
    observable one, this probe replaces :class:`KernelProbe` and skips the
    bookkeeping entirely; results are bit-identical to the charged probe's,
    intra-row equalities included (both read the index through
    :class:`_EqualityFilter`).
    """

    charging = False

    __slots__ = ("code_map", "rows_map", "index")

    def __init__(self, relation, positions: Tuple[int, ...], intra_eq=()):
        table = relation.table
        self.code_map = table._interner._code_of
        self.rows_map, self.index = _probe_access(table, positions, intra_eq)

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

    This is :meth:`Database.scan`'s memo-charging path with the per-probe
    call tower peeled away: no bindings dictionary, no relation lookup, no
    ``bucket`` dispatch -- just a subset-index (or row-map, for fully-bound
    probes) lookup plus the bucket-level charging memo, inlined against
    hoisted locals.  Used for every keyed scan step and negation probe of
    the batch executor, where every probe corresponds to exactly one
    ``Database.scan`` call of the row-at-a-time executor; the memo tokens,
    ``_touched`` entries and counter bumps land bit-identically.

    With intra-row equalities the index is read through
    :class:`_EqualityFilter`, so the probe charges the filtered rows, as
    ``Database.scan`` does, and memoizes them under a token of their own:
    ``(positions, intra_eq)`` in place of the unfiltered bucket's
    ``positions``.  A memo hit is still exact, because every row of the
    filtered bucket was charged when the token was stamped.

    Callers intern probe keys through :attr:`code_map` themselves (so a
    batch interns each join value once) and pass the interned key tuple --
    or ``None`` when any component value is unknown to the interner, which
    matches the ``(positions, None)`` empty-bucket token of
    :meth:`IntTable.bucket`.
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

    def __init__(self, db, relation, positions: Tuple[int, ...], intra_eq=()):
        table = relation.table
        self.code_map = table._interner._code_of
        self.rows_map, self.index = _probe_access(table, positions, intra_eq)
        self.counters = db.counters
        self.touched = db._touched
        charged = db._charged.get(relation.name)
        if charged is None:
            charged = db._charged[relation.name] = {}
        self.charged = charged
        self.mutations = table.mutations
        self.predicate = relation.name
        pos_set = frozenset(positions)
        self.positions = (pos_set, intra_eq) if intra_eq else pos_set
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


def build_probe(
    db,
    predicate: str,
    positions: Tuple[int, ...],
    visible,
    intra_eq: Tuple[Tuple[int, int], ...] = (),
) -> Optional[object]:
    """The probe a batch step reads ``predicate`` of ``db`` through.

    ``visible`` is the counters object whose charges the caller can observe
    (the engine-facing database's): a database charging it gets a
    :class:`KernelProbe`, cached on the database while the relation is
    unchanged; one charging a different object is a runtime-internal
    scratch store and gets the bookkeeping-free :class:`SilentProbe`.
    ``intra_eq`` are the step's ``(position, other)`` equalities.  Returns
    ``None`` when ``db`` has no such relation (its scans return nothing and
    charge nothing); a table outside the process-wide interner, which
    ``Database``-built tables never are, raises :class:`ValueError`.
    """
    relation = db.relations.get(predicate)
    if relation is None:
        return None
    if db.counters is not visible:
        return SilentProbe(relation, positions, intra_eq)
    # Reuse the probe while the relation is untouched and the database still
    # charges the counters the probe was built with: its touched-set and
    # memo are stable between mutations, and a warm key memo charges
    # repeats exactly like the bucket memo would (see
    # :meth:`KernelProbe.lookup`).  Callers that swap ``db.counters`` for
    # one operation (a materialization's resume, a magic refresh) get a
    # probe charging the swapped-in object.
    mutations = relation.table.mutations
    cache = db._probe_cache
    cache_key = (predicate, positions, intra_eq)
    hit = cache.get(cache_key)
    if (
        hit is not None
        and hit[0] is relation
        and hit[1] == mutations
        and hit[2].counters is visible
    ):
        return hit[2]
    probe = KernelProbe(db, relation, positions, intra_eq)
    cache[cache_key] = (relation, mutations, probe)
    return probe
