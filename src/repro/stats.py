"""Relation statistics: the data the cost-based planner reads.

The storage kernel already maintains everything a Selinger-style optimizer
needs -- :class:`~repro.storage.table.IntTable` keeps the row count, lazy
per-column distinct-code sets and (for binary tables) adjacency buckets whose
sizes are exact per-code frequencies.  This module derives a compact
:class:`TableStats` summary from those structures and keeps it valid across
the copy-on-write lifecycle without ever rescanning a table that has not
changed:

* **the table owns its stats** -- the summary lives in the table's
  :attr:`IntTable.stats` slot, so it is freed with the table instead of
  outliving it in a process-wide cache;
* **snapshots share stats** -- :meth:`IntTable.snapshot` shares the slot
  O(1) along with the row map, so both sides read one summary until either
  is written (at which point the writer's copy-on-write unshare gives it a
  new row map and clears its slot, while the other side keeps the old
  summary);
* **inserts patch lazily** -- the summary records the number of leading rows
  it has folded in (the same watermark idiom the table's lagging subset
  indexes use); an insert-only growth replays just the row-map tail into the
  per-column frequency counters instead of rescanning from row zero, which
  is what keeps per-round refreshes of a fixpoint's growing relations cheap;
* **removals invalidate** -- a removal (detected as "the mutation epoch
  advanced by more than the row count grew") makes the next request pay
  one full rebuild, mirroring how the table itself invalidates
  its lazy column code sets on :meth:`IntTable.remove`.

:class:`TableStats` exposes *estimates* (average rows per probe key under
the uniform-frequency assumption, refined by exact per-constant frequencies
where known) and *sound bounds* (:meth:`TableStats.max_rows`: no single
probe binding a position can ever return more rows than that position's
maximal frequency).  The property tests assert the bounds against random
tables; the planner consumes the estimates through :class:`PlanStatistics`,
a per-database view that also produces the coarse cardinality fingerprint
the cost-mode plan cache is keyed on.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .storage.table import IntTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .datalog.database import Database

#: Most-common-value sketch width: the top-K (code, count) pairs kept per
#: column for reporting; the full frequency dict backs the sound bounds.
MCV_WIDTH = 8


class ColumnStats:
    """Frequency statistics for one argument position of a table.

    ``counts`` maps interned codes to their exact row frequency at this
    position (it is the incremental source of truth; ``distinct`` and
    ``max_count`` are derived).  ``mcv`` is the reporting sketch: the top
    :data:`MCV_WIDTH` ``(code, count)`` pairs, recomputed on demand.
    """

    __slots__ = ("counts", "_mcv")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self._mcv: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def distinct(self) -> int:
        """Exact number of distinct values at this position."""
        return len(self.counts)

    @property
    def max_count(self) -> int:
        """The highest frequency of any single value (0 for an empty table)."""
        return max(self.counts.values(), default=0)

    @property
    def mcv(self) -> Tuple[Tuple[int, int], ...]:
        """The most-common-value sketch: top-K ``(code, count)``, count desc.

        Ties break by code so the sketch is deterministic across runs.
        """
        if self._mcv is None:
            self._mcv = tuple(
                sorted(self.counts.items(), key=lambda e: (-e[1], e[0]))[:MCV_WIDTH]
            )
        return self._mcv

    def _invalidate_sketch(self) -> None:
        self._mcv = None


class TableStats:
    """A statistics summary of one :class:`IntTable` at a mutation epoch.

    Instances are built and patched only by :func:`table_stats`; consumers
    treat them as read-only.  ``cardinality`` is the exact row count and
    ``columns[p].counts`` the exact per-code frequencies at position ``p``
    -- "estimate" enters only when a probe key's frequency is unknown and
    the uniform assumption stands in.
    """

    __slots__ = ("arity", "cardinality", "columns", "epoch")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.cardinality = 0
        self.columns: List[ColumnStats] = [ColumnStats() for _ in range(arity)]
        self.epoch = 0

    # -- construction ------------------------------------------------------

    def _fold(self, introws: Iterable[Tuple[int, ...]]) -> int:
        """Accumulate rows into the frequency counters; returns the count."""
        folded = 0
        column_counts = [column.counts for column in self.columns]
        for introw in introws:
            folded += 1
            for position, code in enumerate(introw):
                counts = column_counts[position]
                counts[code] = counts.get(code, 0) + 1
        if folded:
            for column in self.columns:
                column._invalidate_sketch()
        self.cardinality += folded
        return folded

    @classmethod
    def _from_adjacency(cls, table: IntTable) -> Optional["TableStats"]:
        """Build from already-built adjacency buckets when both sides exist.

        Binary tables the join path has probed carry exact per-code bucket
        sizes in their adjacency indexes; folding those is O(distinct), not
        O(rows).  Returns ``None`` when either position's adjacency index
        has not been built (building one just for statistics would cost the
        row scan it is meant to avoid).
        """
        if table.arity != 2:
            return None
        left = table.built_adjacency(0)
        right = table.built_adjacency(1)
        if left is None or right is None:
            return None
        stats = cls(2)
        stats.cardinality = len(table)
        stats.columns[0].counts = {
            code: len(entry[1]) for code, entry in left.items()
        }
        stats.columns[1].counts = {
            code: len(entry[1]) for code, entry in right.items()
        }
        return stats

    # -- estimates and bounds ----------------------------------------------

    def frequency(self, position: int, code: Optional[int]) -> int:
        """Exact row count for ``code`` at ``position`` (0 when absent)."""
        if code is None:
            return 0
        return self.columns[position].counts.get(code, 0)

    def eq_selectivity(self, position: int) -> float:
        """Estimated fraction of rows matching ``position = <unknown value>``.

        The uniform assumption: 1 / distinct values.  1.0 for an empty
        column (no information; the caller's row estimate is 0 anyway).
        """
        distinct = self.columns[position].distinct
        return 1.0 / distinct if distinct else 1.0

    def estimate_rows(
        self,
        bound_positions: Sequence[int] = (),
        known_codes: Optional[Dict[int, int]] = None,
    ) -> float:
        """Estimated rows returned by one probe binding ``bound_positions``.

        Positions with a known constant code (``known_codes``) contribute
        their *exact* frequency fraction; unknown-value positions contribute
        the uniform ``1/distinct``.  Independence across positions is
        assumed, the classic System-R model.  An unbound probe is a full
        scan: the cardinality itself.
        """
        estimate = float(self.cardinality)
        for position in bound_positions:
            if known_codes is not None and position in known_codes:
                count = self.frequency(position, known_codes[position])
                if self.cardinality:
                    estimate *= count / self.cardinality
                else:
                    estimate = 0.0
            else:
                estimate *= self.eq_selectivity(position)
        return estimate

    def max_rows(self, bound_positions: Sequence[int]) -> int:
        """A *sound* upper bound on any single probe's result size.

        A probe that binds position ``p`` can only return rows whose value
        at ``p`` is the probed one, so it can never exceed ``p``'s maximal
        frequency; with several bound positions the tightest single-column
        bound applies.  An unbound probe returns every row.
        """
        bound = self.cardinality
        for position in bound_positions:
            bound = min(bound, self.columns[position].max_count)
        return bound

    def __repr__(self) -> str:
        distinct = "x".join(str(c.distinct) for c in self.columns)
        return (
            f"TableStats(rows={self.cardinality}, distinct={distinct}, "
            f"epoch={self.epoch})"
        )


def table_stats(table: IntTable) -> TableStats:
    """The (cached, incrementally patched) statistics summary of ``table``.

    See the module docstring for the caching contract: snapshot-sharing
    tables share one summary, insert-only growth replays just the row-map
    tail, removals (or a copy-on-write unshare) rebuild.
    """
    rows = table.rows_map
    epoch = table.mutations
    cached = table.stats
    if isinstance(cached, TableStats):
        if cached.epoch == epoch:
            return cached
        grown = len(rows) - cached.cardinality
        if grown == epoch - cached.epoch and grown >= 0:
            # Insert-only growth: fold exactly the un-summarised tail.
            cached._fold(islice(iter(rows), cached.cardinality, None))
            cached.epoch = epoch
            return cached
        # Removals happened (epoch advanced more than the row count grew):
        # fall through to a rebuild.
    stats = TableStats._from_adjacency(table)
    if stats is None:
        stats = TableStats(table.arity)
        stats._fold(rows)
    stats.epoch = epoch
    table.stats = stats
    return stats


#: Cardinality fingerprint granularity: plans re-cost when a relation
#: crosses a power-of-two size boundary, not on every insert.
def _magnitude(cardinality: int) -> int:
    return cardinality.bit_length()


class PlanStatistics:
    """A per-database statistics view the plan compiler reads.

    Wraps one :class:`~repro.datalog.database.Database`, resolving predicate
    names to :class:`TableStats` lazily (memoized per instance) and interning
    constant values so probes by a known constant can use its exact
    frequency.  ``overrides`` maps predicate names to assumed cardinalities
    -- the adaptive re-planner uses this to cost a seminaive round with the
    *observed* delta size in place of the full relation's.

    :meth:`fingerprint` is the cost-mode plan-cache key component: the
    power-of-two magnitude of every named relation (plus any override), so
    cached cost-based plans are reused while relative sizes hold and
    recompiled when a relation crosses an order-of-magnitude boundary.
    """

    __slots__ = ("database", "overrides", "_memo")

    def __init__(
        self,
        database: "Database",
        overrides: Optional[Dict[str, int]] = None,
    ) -> None:
        self.database = database
        self.overrides = dict(overrides) if overrides else {}
        self._memo: Dict[str, Optional[TableStats]] = {}

    def stats_for(self, predicate: str) -> Optional[TableStats]:
        """``TableStats`` for a stored relation, ``None`` when unknown."""
        memo = self._memo
        if predicate in memo:
            return memo[predicate]
        relation = self.database.relations.get(predicate)
        stats = table_stats(relation.table) if relation is not None else None
        memo[predicate] = stats
        return stats

    def cardinality(self, predicate: str) -> float:
        """Assumed row count: override first, then the stored relation, 0."""
        override = self.overrides.get(predicate)
        if override is not None:
            return float(override)
        stats = self.stats_for(predicate)
        return float(stats.cardinality) if stats is not None else 0.0

    def code_of(self, predicate: str, value: object) -> Optional[int]:
        """The interned code of ``value`` in the relation's interner."""
        relation = self.database.relations.get(predicate)
        if relation is None:
            return None
        return relation.table.interner.code_of(value)

    def fingerprint(self, predicates: Iterable[str]) -> Tuple:
        """The coarse size signature cost-mode plan caching keys on."""
        parts: List[Tuple[object, ...]] = []
        for predicate in sorted(set(predicates)):
            override = self.overrides.get(predicate)
            if override is not None:
                parts.append((predicate, "~", _magnitude(int(override))))
                continue
            stats = self.stats_for(predicate)
            parts.append(
                (predicate, _magnitude(stats.cardinality if stats else 0))
            )
        return tuple(parts)
