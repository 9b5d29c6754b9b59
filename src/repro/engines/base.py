"""Common interface for the baseline evaluation strategies.

Every engine answers a query against a program and a database and reports
machine-independent work counters, so the comparison benchmarks of the paper
(Section 3, the same-generation table) can be reproduced by measuring
``Counters.total_work`` as the database grows.

The engines are deliberately written in the style the original papers
describe them, *not* optimised beyond that: duplication of work (naive
evaluation refiring rules, Henschen-Naqvi retraversing paths) is part of what
the comparison measures.

The materialize / answer / resume contract
------------------------------------------

One-shot evaluation (:meth:`Engine.answer`) re-runs the strategy per query.
For the repeated-traffic serving model of the session layer
(:mod:`repro.session`), every engine additionally implements:

``materialize(program, database) -> Materialization``
    Build the strategy's reusable state over the current extensional
    database.  The materialization records the database :attr:`~repro
    .datalog.database.Database.version` it was built at.  Two shapes exist:

    * **model materializations** (naive, seminaive) hold the full least
      model; :meth:`Materialization.answer` is a relation lookup for *any*
      query over the program;
    * **demand materializations** (magic, counting, reverse counting,
      Henschen-Naqvi, graph traversal, top-down) hold a per-query cache over
      a shared copy-on-write base: the first ``answer`` for a query shape
      runs the strategy, repeats are lookups.  Queries differing only by
      variable names share one cache entry.

``Materialization.answer(query) -> EngineResult``
    Answer from the cached state; no fixpoint is re-run on a cache hit.
    Cache hits report empty counters (a lookup retrieves nothing new) and
    set ``details["cached"]``.

``resume(materialization, edb_delta) -> Materialization``
    Bring the materialization up to date after an EDB delta.  ``edb_delta``
    is either a plain ``{predicate: [row, ...]}`` mapping of insertions (the
    historical contract) or a signed :class:`~repro.datalog.database.Delta`
    carrying insertions *and* deletions -- the shape :meth:`~repro.datalog
    .database.Database.delta_since` returns.  Model materializations
    maintain the model in place: insertions continue the fixpoint
    seminaively from the inserted facts (seminaive evaluation is already a
    delta computation, so the continuation is the same machinery seeded
    with the EDB delta; this is the resume path even for the naive engine,
    whose from-scratch re-run is exactly what resume exists to avoid) and
    deletions run delete-rederive (DRed) maintenance -- overdelete every
    tuple with a derivation through a deleted fact, then rederive the
    survivors; both live in :func:`repro.engines.runtime.resume_stratified`.
    The magic engine continues each cached query's rewritten-program
    fixpoint for insertions and recomputes the entry when a visible
    deletion arrives (over-deleted magic seeds are not continuable).  The
    set-at-a-time traversal strategies (counting, Henschen-Naqvi, graph)
    keep no arc-set state that a later mutation could patch, so their
    cached queries are refreshed by re-running the traversal over the
    updated base -- lazily, on the next ``answer``, and only when the delta
    (of either sign) touches a predicate the program can see.  After
    ``resume``, answers equal a from-scratch materialization over the
    updated database (asserted per engine and workload family by
    ``tests/engines/test_incremental_differential.py``,
    ``tests/engines/test_deletion_differential.py`` and, for negation and
    aggregation, ``tests/engines/test_stratified_differential.py``).

Stratified programs (negation, aggregation)
-------------------------------------------

The model engines (naive, seminaive) accept any *stratifiable* program:
``materialize`` computes the full stratified model (one monotone fixpoint
per stratum, bottom-up -- see :mod:`repro.engines.runtime`), ``answer``
remains a relation lookup over it, and a program with negation or
aggregation through recursion raises :class:`~repro.datalog.errors
.StratificationError` instead of materializing anything.  ``resume`` on a
delta is **non-monotone** for stratified programs -- an inserted fact below
a ``not`` can retract conclusions above it -- so instead of continuing the
fixpoint the runtime *restarts evaluation at the lowest stratum whose
inputs the delta touches*, reusing the cached models of every lower stratum
copy-on-write; positive programs are the 1-stratum special case for which
this degenerates to the pure seminaive continuation.  The demand-driven
strategies do not evaluate stratified programs themselves: their
``applicable`` checks reject non-positive programs (the graph engine's
planner falls back to the stratified bottom-up model), and the session
layer serves such programs from the seminaive model materialization.
Deletions restart the affected strata the same way -- a deleted fact below
a ``not`` is as non-monotone as an inserted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Type

from ..config import current_config
from ..datalog.database import Database, Delta, Row, normalize_row
from ..datalog.errors import NotApplicableError
from ..datalog.literals import Literal
from ..datalog.rules import Program
from ..datalog.terms import Constant
from ..instrumentation import Counters


@dataclass
class EngineResult:
    """The outcome of one engine run.

    Attributes
    ----------
    answers:
        Tuples over the query's distinct variables, in order of first
        occurrence (the convention of
        :func:`repro.datalog.semantics.answer_query`).  Each result owns
        its set (and its ``details`` dict): no cache or other result holds
        it, so the caller may mutate it freely.
    engine:
        The engine's registry name.
    counters:
        Work counters accumulated while answering.
    iterations:
        Number of outer-loop rounds, when the engine is iterative.
    details:
        Engine-specific extras (e.g. the rewritten magic program).
    """

    answers: Set[Tuple[object, ...]]
    engine: str
    counters: Counters
    iterations: int = 0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def batch_stats(self):
        """Columnar batch telemetry accumulated while answering.

        The :class:`~repro.instrumentation.BatchStats` carried by
        :attr:`counters` -- batches committed, rows in/out, row-loop
        fallbacks, and per-plan-node counts.  All zeros when the run
        executed under ``configured(execution="interpreted")``.
        """
        return self.counters.batch

    def values(self) -> Set[object]:
        """Bare values for single-variable queries.

        Raises :class:`ValueError` when any answer tuple is not unary --
        silently projecting the first component of a wider tuple (or
        dropping the empty tuple of a ground query) would hand back a
        misleading partial answer set.  Use :attr:`answers` for those.
        """
        for answer in self.answers:
            if len(answer) != 1:
                raise ValueError(
                    f"values() needs unary answer tuples, got arity {len(answer)}; "
                    "use .answers for ground or multi-variable queries"
                )
        return {t[0] for t in self.answers}


def _canonical_query_key(query: Literal) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
    """A query cache key invariant under variable renaming.

    Answers are tuples over the query's distinct variables in order of first
    occurrence, so two queries differing only in variable names have
    identical answer sets and may share one materialization entry.
    """
    shape: List[Tuple[str, object]] = []
    var_index: Dict[object, int] = {}
    for term in query.args:
        if isinstance(term, Constant):
            shape.append(("c", term.value))
        else:
            shape.append(("v", var_index.setdefault(term, len(var_index))))
    return (query.predicate, tuple(shape))


def _coerce_delta(program: Program, edb_delta: object) -> Delta:
    """Coerce a resume delta to :class:`Delta`, rejecting derived predicates."""
    delta = Delta.coerce(edb_delta)
    derived = program.derived_predicates
    for predicate in delta.predicates():
        if predicate in derived:
            raise ValueError(
                f"cannot resume with facts for derived predicate {predicate!r}"
            )
    return delta


class Materialization:
    """Cached evaluation state answering queries without a from-scratch run.

    See the module docstring for the materialize / answer / resume contract.
    ``counters`` accumulates the work of building the materialization and of
    every resume applied to it; per-call counters can be passed to
    :meth:`answer` / :meth:`resume` to measure one operation in isolation.
    """

    kind = "abstract"

    def __init__(
        self,
        engine: "Engine",
        program: Program,
        database: Database,
        basis_version: int,
        counters: Counters,
    ):
        self.engine = engine
        self.engine_name = engine.name
        self.program = program
        self.database = database
        self.basis_version = basis_version
        self.counters = counters
        self.iterations = counters.iterations
        self.details: Dict[str, object] = {}

    def answer(self, query: Literal, counters: Optional[Counters] = None) -> EngineResult:
        raise NotImplementedError

    def resume(
        self,
        edb_delta,
        counters: Optional[Counters] = None,
        version: Optional[int] = None,
    ) -> "Materialization":
        """Apply a (possibly signed) EDB delta; see :meth:`Engine.resume`."""
        raise NotImplementedError

    def _effective_size(self, delta: Delta) -> int:
        """How many delta rows would mutate the base: new inserts + present deletes.

        Computed *before* the delta is applied, with uncharged O(1)
        membership probes per row (never a whole-relation snapshot -- the
        streaming resume path calls this once per batch).  Rows are
        normalized exactly as :meth:`Database.add_fact` normalizes them, so
        ``Constant``-wrapped duplicates are recognised as duplicates, and
        repeats *within* the delta count once -- overshooting would move the
        basis version past the source database and make the next
        ``delta_since`` raise.
        """
        applied = 0
        relations = self.database.relations
        for predicate, rows in delta.inserts.items():
            relation = relations.get(predicate)
            new_rows: Set[Row] = set()
            for row in rows:
                row = normalize_row(row)
                if (relation is None or row not in relation) and row not in new_rows:
                    new_rows.add(row)
                    applied += 1
        for predicate, rows in delta.deletes.items():
            relation = relations.get(predicate)
            if relation is None:
                continue
            gone_rows: Set[Row] = set()
            for row in rows:
                row = normalize_row(row)
                if row in relation and row not in gone_rows:
                    gone_rows.add(row)
                    applied += 1
        return applied

    def _advance(self, version: Optional[int], applied: int) -> None:
        """Move the basis version after a resume.

        Without an explicit ``version`` the basis advances by the number of
        rows that *effectively mutated* the materialization's database --
        never by the raw delta length: rows already visible (duplicate
        inserts) or already gone (absent deletes, or mutations that leaked
        through copy-on-write sharing before the resume) do not advance the
        source database's version either, and overshooting it would make a
        later ``delta_since(basis_version)`` raise.  Advancing too little is
        safe -- re-applying a delta row is idempotent.
        """
        if version is not None:
            self.basis_version = version
        else:
            self.basis_version += applied


class ModelMaterialization(Materialization):
    """The full least model, materialized once; answering is a lookup.

    Used by the bottom-up model engines (naive, seminaive).  ``database``
    holds the extensional relations, the program facts and every derived
    tuple; :meth:`resume` continues the fixpoint seminaively from the
    inserted facts.
    """

    kind = "model"

    def __init__(self, engine, program, database, basis_version, counters, analysis=None):
        super().__init__(engine, program, database, basis_version, counters)
        self._analysis = analysis

    def answer(self, query: Literal, counters: Optional[Counters] = None) -> EngineResult:
        return EngineResult(
            answers=self.database.answers(query),
            engine=self.engine_name,
            counters=counters if counters is not None else Counters(),
            iterations=self.iterations,
            details={
                "materialized": True,
                "derived_size": self.database.count(query.predicate),
            },
        )

    def resume(self, edb_delta, counters=None, version=None):
        from .runtime import resume_stratified

        delta = _coerce_delta(self.program, edb_delta)
        applied = self._effective_size(delta)
        target = counters if counters is not None else self.counters
        previous, self.database.counters = self.database.counters, target
        try:
            # Positive programs are maintained in place (DRed for the
            # deletions, then the seminaive continuation for the
            # insertions); stratified programs hand back a rebuilt database
            # with the affected strata recomputed, which simply replaces
            # this materialization's model.
            self.database, _ = resume_stratified(
                self.program, self.database, delta, target, self._analysis
            )
        finally:
            self.database.counters = previous
        if counters is not None and counters is not self.counters:
            self.counters = self.counters + counters
        self.iterations = self.counters.iterations
        self._advance(version, applied)
        return self


def _served(result: EngineResult, hit_counters: Optional[Counters] = None) -> EngineResult:
    """A copy of a cached result that owns its answer set and details dict.

    A caller mutating what it was served must not reach the cache, or the
    next hit would hand the mutation out.  ``hit_counters`` marks a cache
    hit: the copy reports them instead of the work that built the entry,
    and sets ``details["cached"]``.
    """
    details = dict(result.details)
    if hit_counters is not None:
        details["cached"] = True
    return EngineResult(
        answers=set(result.answers),
        engine=result.engine,
        counters=hit_counters if hit_counters is not None else result.counters,
        iterations=result.iterations,
        details=details,
    )


class _DemandEntry:
    """One cached query of a :class:`DemandMaterialization`."""

    __slots__ = ("query", "result", "synced", "state")

    def __init__(self, query: Literal, result: EngineResult, synced: int):
        self.query = query
        self.result = result
        self.synced = synced
        self.state: object = None


class DemandMaterialization(Materialization):
    """A per-query answer cache over a shared copy-on-write base.

    Used by the demand-driven strategies (magic, counting, reverse counting,
    Henschen-Naqvi, graph traversal, top-down), whose work is driven by the
    query constants.  ``database`` holds the extensional relations plus the
    program facts; each cached query computed over it gets its own overlay.
    :meth:`resume` applies the (possibly signed) delta to the base
    immediately and logs it; cache entries are brought up to date lazily on
    their next :meth:`answer` -- the magic engine by continuing the entry's
    rewritten-program fixpoint (insertions) or recomputing it (deletions),
    the traversal engines by re-running the traversal -- and only when the
    delta touches a predicate the entry can see.
    """

    kind = "demand"

    def __init__(self, engine, program, database, basis_version, counters):
        super().__init__(engine, program, database, basis_version, counters)
        self._entries: Dict[object, _DemandEntry] = {}
        # Pending signed delta rows -- (predicate, row, inserted) -- not yet
        # seen by every entry.  ``entry.synced`` holds *absolute* log
        # positions; the list itself is pruned to the slowest entry's
        # position, with ``_log_offset`` recording how many rows were
        # dropped, so a long-lived session's memory is bounded by the
        # unsynced window, not by the total mutation history.
        self._log: List[Tuple[str, Row, bool]] = []
        self._log_offset = 0

    def _log_end(self) -> int:
        return self._log_offset + len(self._log)

    def answer(self, query: Literal, counters: Optional[Counters] = None) -> EngineResult:
        key = _canonical_query_key(query)
        entry = self._entries.get(key)
        call_counters = counters if counters is not None else Counters()
        if entry is None:
            entry = _DemandEntry(query, None, self._log_end())
            entry.result = self.engine._materialize_entry(self, entry, call_counters)
            self._entries[key] = entry
            return _served(entry.result)
        if entry.synced < self._log_end():
            delta_slice = self._log[entry.synced - self._log_offset :]
            entry.synced = self._log_end()
            self._prune_log()
            if self._delta_visible_to(entry, delta_slice):
                entry.result = self.engine._refresh_entry(
                    self, entry, delta_slice, call_counters
                )
                return _served(entry.result)
        return _served(entry.result, hit_counters=call_counters)

    def resume(self, edb_delta, counters=None, version=None):
        delta = _coerce_delta(self.program, edb_delta)
        applied = 0
        pairs: List[Tuple[str, Row, bool]] = []
        for predicate, rows in delta.deletes.items():
            for row in rows:
                if self.database.remove_fact(predicate, row):
                    applied += 1
                pairs.append((predicate, row, False))
        for predicate, rows in delta.inserts.items():
            for row in rows:
                if self.database.add_fact(predicate, row):
                    applied += 1
                pairs.append((predicate, row, True))
        if self._entries:
            self._log.extend(pairs)
        # without entries there is nothing to refresh later: new entries
        # always compute over the already-updated base
        self._advance(version, applied)
        return self

    def _prune_log(self) -> None:
        slowest = min(entry.synced for entry in self._entries.values())
        drop = slowest - self._log_offset
        if drop > 0:
            del self._log[:drop]
            self._log_offset = slowest

    def _delta_visible_to(
        self, entry: _DemandEntry, delta_slice: List[Tuple[str, Row, bool]]
    ) -> bool:
        touched = {predicate for predicate, _, _ in delta_slice}
        if entry.query.predicate in self.program.derived_predicates:
            return bool(touched & self.program.predicates)
        return entry.query.predicate in touched


class Engine:
    """Base class: an evaluation strategy with a registry name."""

    name: str = "abstract"

    def answer(
        self,
        program: Program,
        query: Literal,
        database: Optional[Database] = None,
        counters: Optional[Counters] = None,
    ) -> EngineResult:
        """Answer ``query`` against ``program`` (+ optional external database).

        Subclasses implement :meth:`_run`; this wrapper merges the program's
        own facts with the external database and wires up the counters.  The
        merge is a copy-on-write overlay (:meth:`Database.overlay`) of a
        combined snapshot memoized per ``(program, database version)`` by the
        session layer (:func:`repro.session.facts.combined_database`): the
        program's facts are interned and merged once per database version
        instead of once per query, the caller's relations -- and their
        already-built hash indexes -- are shared read-only, and only a
        relation the engine actually writes to is cloned.  The caller's
        database is never mutated.
        """
        counters = counters if counters is not None else Counters()
        from ..datalog.diagnostics import ensure_valid
        from ..datalog.transform import optimize
        from ..session.facts import combined_database, combined_snapshot

        ensure_valid(program)
        combined = combined_database(program, database, counters)
        if current_config().optimize:
            # Optimize against the memoized snapshot under the per-call
            # overlay: the optimizer and its abstract analysis (memoized per
            # program and database object) then run once per database
            # version.
            rewritten = optimize(
                program,
                queries=(query.predicate,),
                database=combined_snapshot(program, database),
            )
            optimized = rewritten.program
            if (
                rewritten.report.changed
                and query.predicate in optimized.predicates
                and self.applicable(optimized, query)
            ):
                outcome = self._run(optimized, query, combined, counters)
                outcome.details["program_opt"] = rewritten.report.format()
                return outcome
        return self._run(program, query, combined, counters)

    def _run(
        self,
        program: Program,
        query: Literal,
        database: Database,
        counters: Counters,
    ) -> EngineResult:
        raise NotImplementedError

    def applicable(self, program: Program, query: Literal) -> bool:
        """Whether the engine's restrictions are met (default: always)."""
        return True

    # -- the materialize / answer / resume contract -------------------------

    def materialize(
        self,
        program: Program,
        database: Optional[Database] = None,
        counters: Optional[Counters] = None,
    ) -> Materialization:
        """Build reusable evaluation state (see the module docstring).

        The default is a :class:`DemandMaterialization` -- right for every
        strategy whose work is driven by the query constants.  The model
        engines (naive, seminaive) override this with a full least-model
        materialization.
        """
        counters = counters if counters is not None else Counters()
        combined, basis_version = self._materialization_base(program, database, counters)
        return DemandMaterialization(self, program, combined, basis_version, counters)

    def resume(
        self,
        materialization: Materialization,
        edb_delta,
        counters: Optional[Counters] = None,
        version: Optional[int] = None,
    ) -> Materialization:
        """Bring ``materialization`` up to date after an EDB delta.

        ``edb_delta`` is either a plain ``{predicate: rows}`` mapping of
        insertions or a signed :class:`~repro.datalog.database.Delta`
        carrying insertions and deletions (the shape
        :meth:`Database.delta_since` returns).  ``version`` optionally pins
        the database version the materialization now corresponds to; without
        it the basis version advances by the number of effective delta rows.
        Returns the same (updated) materialization.
        """
        if materialization.engine_name != self.name:
            raise ValueError(
                f"materialization was built by {materialization.engine_name!r}, "
                f"cannot resume with {self.name!r}"
            )
        return materialization.resume(edb_delta, counters=counters, version=version)

    def _materialization_base(
        self,
        program: Program,
        database: Optional[Database],
        counters: Counters,
    ) -> Tuple[Database, int]:
        """The combined (EDB + program facts) overlay and its basis version."""
        from ..session.facts import combined_database

        combined = combined_database(program, database, counters)
        return combined, database.version if database is not None else 0

    def _materialize_entry(
        self,
        materialization: DemandMaterialization,
        entry: _DemandEntry,
        counters: Counters,
    ) -> EngineResult:
        """Compute one cached query of a demand materialization.

        The default runs the strategy (:meth:`_run`) over a fresh overlay of
        the materialization's base.  Engines with continuable per-query state
        (magic) override this to stash that state on ``entry.state``.
        """
        overlay = Database.overlay(materialization.database, counters=counters)
        return self._run(materialization.program, entry.query, overlay, counters)

    def _refresh_entry(
        self,
        materialization: DemandMaterialization,
        entry: _DemandEntry,
        delta_slice: List[Tuple[str, Row, bool]],
        counters: Counters,
    ) -> EngineResult:
        """Bring one cached query up to date after a resumed delta.

        The default re-runs the strategy over the updated base (the honest
        move for the set-at-a-time traversals, which keep no continuable
        state); the magic engine overrides this with a seminaive continuation
        of the entry's rewritten-program fixpoint for insert-only slices.
        """
        return self._materialize_entry(materialization, entry, counters)


_REGISTRY: Dict[str, Type[Engine]] = {}


def register(engine_class: Type[Engine]) -> Type[Engine]:
    """Class decorator adding an engine to the registry."""
    _REGISTRY[engine_class.name] = engine_class
    return engine_class


def available_engines() -> Dict[str, Type[Engine]]:
    """Registry name -> engine class, for all registered engines."""
    return dict(_REGISTRY)


def get_engine(name: str) -> Engine:
    """Instantiate a registered engine by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise NotApplicableError(
            f"unknown engine {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
