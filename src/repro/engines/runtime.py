"""The shared stratified fixpoint runtime: one stratum scheduler, two drivers.

Historically every bottom-up engine carried its own fixpoint loop (naive a
global Jacobi iteration, seminaive a per-SCC differential loop, magic the
seminaive loop over a rewritten program).  This module is the single home of
those loops, generalised to *stratified* programs -- negation and
aggregation included:

* :func:`evaluate_stratified` asks :class:`~repro.datalog.analysis
  .Stratification` for the ordered strata (raising
  :class:`~repro.datalog.errors.StratificationError` for programs with
  negation or aggregation through recursion) and evaluates them bottom-up.
  Within a stratum every dependency is positive -- negative arcs always
  cross stratum boundaries -- so each stratum is an ordinary monotone
  fixpoint over relations whose negated/aggregated inputs are already
  complete.
* Two **stratum drivers** reproduce the historical engines exactly:
  ``naive=True`` runs the Jacobi iteration over the stratum's rules in
  program order, ``naive=False`` runs the per-component seminaive
  differential loop on the compiled delta plans of
  :mod:`repro.datalog.plans`.  A *positive* program stratifies into exactly
  one stratum whose component order is ``analysis.evaluation_order()``, so
  both drivers are bit-identical -- answers *and* work counters -- to the
  pre-stratification engines; the 88 pinned paper-sample counters enforce
  this.
* Aggregate rules compile to :class:`~repro.datalog.plans.AggregateFold`
  operators and fire exactly once when their component is reached: their
  body predicates live in strictly lower strata, so the fold's inputs cannot
  change during the stratum's own fixpoint.
* :func:`resume_stratified` is the incremental path of the
  materialize/answer/resume contract, and it now accepts *signed* deltas
  (:class:`~repro.datalog.database.Delta`: inserts and deletes).  For
  positive programs insertions are the PR-3 seminaive continuation (a delta
  computation seeded with the EDB delta) and deletions run the
  **delete-rederive (DRed)** maintenance of Gupta-Mumick-Subrahmanian:

  1. *overdelete* -- every derived tuple with at least one derivation
     through a deleted tuple is collected to a fixpoint, driven from the
     delete-delta side by the same ``delta_first`` join plans the insertion
     resume uses;
  2. *remove* -- the deleted EDB rows and the overdeleted derived rows are
     physically removed (the storage kernel maintains its hash and
     adjacency indexes incrementally under removal);
  3. *rederive* -- each overdeleted tuple that still has a derivation from
     the surviving facts is reinserted (a head-bound join probe per rule),
     and the reinsertions are propagated with the ordinary delta-seeded
     seminaive rounds, resurrecting any overdeleted tuple they re-support.

  Stratified programs are non-monotone under *either* sign -- a new ``move``
  fact can retract a ``not win`` consequence, a deleted one can create it --
  so the resume restarts evaluation at the lowest stratum whose inputs the
  delta touches, reusing the cached models of every lower stratum via a
  copy-on-write overlay that simply drops the affected derived relations.

**Parallel evaluation.**  When :func:`repro.parallel.set_parallelism` (or the
``REPRO_PARALLELISM`` environment variable) selects more than one worker, the
seminaive driver arms two concurrency levels, both strictly behind the
switch -- the default of ``1`` runs the historical sequential code paths
byte for byte, which stay the differential oracle:

* **Level 1 -- independent SCCs.**  :func:`_seminaive_stratum` partitions a
  stratum's components into dependency *waves* (a component whose rule
  bodies mention an earlier component's predicates waits for it); the
  components of one wave evaluate concurrently in threads, each against its
  own copy-on-write :meth:`~repro.datalog.database.Database.overlay` with a
  private :class:`~repro.instrumentation.Counters` bundle but a *shared*
  touched set (``share_touched=True``), so the ``distinct_facts`` total is
  the growth of one union.  After the wave joins, overlays merge back in
  evaluation order (:meth:`~repro.datalog.database.Database.absorb_overlay`
  + :meth:`~repro.instrumentation.Counters.absorb`), reproducing the
  sequential journal, relations and counters exactly.
* **Level 2 -- sharded delta rounds.**  Inside a (main-thread) component
  fixpoint, a delta round whose plan is shard-eligible (see
  :class:`~repro.datalog.plans.ShardRecipe`) and whose delta relation holds
  at least :data:`_SHARD_MIN_ROWS` rows is partitioned by the interned code
  of the plan's leading join key and dispatched to a persistent
  fork-inherited :class:`~repro.parallel.WorkerPool`.  Workers are
  probe-only: each rebuilds its shard of the delta from shipped code
  columns, runs the ordinary :meth:`~repro.datalog.plans.JoinPlan
  .head_batch` against the inherited (frozen) main database, and reports
  coded head rows plus the distinct probe rows it touched.  The parent
  merges shards in worker order and replays the exact observable charges:
  ``fact_retrievals`` is the merged head-row count (each probed bucket row
  yields exactly one head row for eligible shapes) and ``distinct_facts``
  is the growth of the parent's touched set under the union of the
  workers' candidates.  Answers and aggregated counters are identical to
  sequential evaluation; within-round row *order* is deterministic (worker
  index, then delta order) but not sequential-identical, which only
  permutes set-insertion order downstream.

The Jacobi driver and the DRed/resume paths stay sequential: the naive
driver exists to reproduce the paper's duplicated-work measurements, and
the maintenance passes are delta-sized, not fixpoint-sized.
"""

from __future__ import annotations

import threading
import time
from array import array
from itertools import repeat as _repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .. import parallel as _parallel
from ..datalog.analysis import ProgramAnalysis, Stratification, analyze
from ..datalog.database import Database, Delta, Relation, Row
from ..datalog import plans as _plans
from ..datalog.plans import aggregate_plan, delta_plan, delta_plans, rule_plan
from ..datalog.rules import Program, Rule
from ..instrumentation import Counters
from ..storage import runtime as _storage_runtime
from ..storage.interner import global_interner
from ..storage.runtime import MODE_KERNEL


#: Delta relations smaller than this evaluate sequentially even when
#: parallelism is armed: below it, the per-round dispatch overhead (pickling
#: the code columns, pipe round-trips, decoding results) exceeds the join
#: itself.  Tests lower it through :func:`set_shard_min_rows` to force the
#: sharded path onto small workloads.
_SHARD_MIN_ROWS = 4096


def set_shard_min_rows(rows: int) -> int:
    """Set the sharding threshold (rows per delta relation); returns the old.

    A test knob: production code should leave the default alone.
    """
    global _SHARD_MIN_ROWS
    if not isinstance(rows, int) or rows < 1:
        raise ValueError(f"shard threshold must be a positive integer, got {rows!r}")
    previous = _SHARD_MIN_ROWS
    _SHARD_MIN_ROWS = rows
    return previous


def _batch_heads(
    plan,
    database: Database,
    derived: Optional[Database] = None,
    frozen: bool = False,
) -> Optional[List[Row]]:
    """All head rows of one whole-batch plan execution, or ``None``.

    ``None`` -- because the interpreted reference mode is selected, the
    plan's shape is not batchable, or an optimistic batch was discarded --
    sends the caller to the row-at-a-time ``plan.heads`` loop.  Every caller
    (:func:`_fire`) satisfies
    :meth:`~repro.datalog.plans.JoinPlan.head_batch`'s consumption contract:
    between the call and the insertion of the returned rows, only the plan's
    head relation of ``database`` (and databases the plan does not read) is
    written.
    """
    if _plans._mode == _plans._MODE_INTERPRETED:
        return None
    return plan.head_batch(database, derived=derived, frozen=frozen)


def _fire(
    plan,
    head_predicate: str,
    database: Database,
    derived: Optional[Database],
    counters: Counters,
    collect: Optional[Database] = None,
    target: Optional[Database] = None,
    derive: bool = True,
    frozen: bool = False,
    batch: Optional[List[Row]] = None,
) -> int:
    """Fire one plan and insert its head rows; returns how many were new.

    The one firing path of every fixpoint, resume and DRed loop.  The plan
    runs as a batch when it can (or ``batch`` is already given, by the shard
    executor) and through its row loop otherwise.  Each head row charges one
    ``rule_firings``; each row new to ``target`` (``database`` unless
    given) charges one ``derived_tuples`` when ``derive`` is set and is
    copied into ``collect`` when given.
    """
    if target is None:
        target = database
    if batch is None:
        batch = _batch_heads(plan, database, derived, frozen)
    if batch is not None:
        counters.rule_firings += len(batch)
        new_rows = target.add_rows(
            head_predicate, batch, journal=target is database
        )
        if new_rows:
            if derive:
                counters.derived_tuples += len(new_rows)
            if collect is not None:
                collect.add_rows(head_predicate, new_rows, journal=False, distinct=True)
        return len(new_rows)
    added = 0
    for head_row in plan.heads(database, derived=derived):
        counters.rule_firings += 1
        if target.add_fact(head_predicate, head_row):
            added += 1
            if derive:
                counters.derived_tuples += 1
            if collect is not None:
                collect.add_fact(head_predicate, head_row)
    return added


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------

def evaluate_stratified(
    program: Program,
    database: Database,
    counters: Optional[Counters] = None,
    analysis: Optional[ProgramAnalysis] = None,
    naive: bool = False,
) -> int:
    """Evaluate every stratum of ``program`` bottom-up, in place.

    Returns the total number of outer-loop rounds (the sum of per-stratum
    Jacobi rounds under the naive driver; the seminaive driver reports its
    rounds through ``counters.iterations`` as it always has).

    Raises :class:`~repro.datalog.errors.StratificationError` when the
    program has no stratification.
    """
    counters = counters if counters is not None else database.counters
    analysis = analysis or analyze(program)
    stratification = Stratification.of(program, analysis)
    total_rounds = 0
    for stratum in stratification.strata:
        rules = stratification.stratum_rules(stratum)
        if not rules:
            continue
        if naive:
            total_rounds += _jacobi_stratum(rules, database, counters)
        else:
            _seminaive_stratum(stratum, program, database, counters)
    return total_rounds


def _jacobi_stratum(rules: List[Rule], database: Database, counters: Counters) -> int:
    """The naive driver: refire every rule of the stratum until no new tuple.

    This is the historical naive loop verbatim (rules in program order, one
    plan per rule, full refiring every round -- the duplication the paper
    measures), preceded by the stratum's aggregate folds, which fire once.
    """
    scan_rules = [rule for rule in rules if not rule.is_aggregate]
    _fire_folds(rules, database, counters)
    plans = [
        (rule.head.predicate, rule_plan(rule, database=database))
        for rule in scan_rules
    ]
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        counters.iterations += 1
        changed = False
        for head_predicate, plan in plans:
            if _fire(plan, head_predicate, database, None, counters):
                changed = True
    return iterations


def _seminaive_stratum(
    stratum, program: Program, database: Database, counters: Counters
) -> None:
    """The seminaive driver: per-component differential fixpoints.

    Components are processed in the stratum's evaluation order (the reverse
    topological order of the SCCs, filtered to the stratum), exactly as the
    historical seminaive engine processed ``analysis.evaluation_order()``.
    With parallelism armed, components that do not depend on each other
    evaluate concurrently in dependency waves (see :func:`_evaluate_wave`);
    the merge order is still evaluation order, so relations, journal and
    counters are identical to the sequential pass.
    """
    derived_predicates = program.derived_predicates
    entries: List[Tuple[Set[str], List[Rule]]] = []
    for component in stratum.components:
        component_predicates = set(component) & derived_predicates
        if not component_predicates:
            continue
        rules = [
            rule
            for predicate in component_predicates
            for rule in program.rules_for(predicate)
            if rule.body
        ]
        entries.append((component_predicates, rules))
    workers = _parallel.parallelism()
    if workers <= 1 or len(entries) <= 1:
        for component_predicates, rules in entries:
            evaluate_component(rules, component_predicates, database, counters)
        return None
    try:
        for wave in _dependency_waves(entries):
            for start in range(0, len(wave), workers):
                chunk = wave[start : start + workers]
                if len(chunk) == 1:
                    component_predicates, rules = entries[chunk[0]]
                    evaluate_component(
                        rules, component_predicates, database, counters
                    )
                else:
                    _evaluate_wave(
                        [entries[i] for i in chunk], database, counters
                    )
    finally:
        # Later sequential charging should not keep paying for the lock the
        # wave overlays installed on the shared touched set.
        database._charge_lock = None
    return None


def _dependency_waves(
    entries: List[Tuple[Set[str], List[Rule]]]
) -> List[List[int]]:
    """Partition a stratum's components into independently evaluable waves.

    ``entries`` is the stratum's (predicates, rules) list in evaluation
    order, so every dependency points at an *earlier* entry.  A component's
    wave is one past the deepest wave it reads from (longest-path layering),
    which puts two components in the same wave only when neither's rule
    bodies mention the other's predicates -- evaluating them concurrently
    then reads exactly the data sequential evaluation would have read.
    """
    owner: Dict[str, int] = {}
    for index, (predicates, _rules) in enumerate(entries):
        for predicate in predicates:
            owner[predicate] = index
    levels: List[int] = []
    for index, (_predicates, rules) in enumerate(entries):
        level = 0
        for rule in rules:
            for literal in rule.body:
                other = owner.get(literal.predicate)
                if other is not None and other < index:
                    level = max(level, levels[other] + 1)
        levels.append(level)
    waves: Dict[int, List[int]] = {}
    for index, level in enumerate(levels):
        waves.setdefault(level, []).append(index)
    return [waves[level] for level in sorted(waves)]


def _evaluate_wave(
    components: List[Tuple[Set[str], List[Rule]]],
    database: Database,
    counters: Counters,
) -> None:
    """Evaluate independent components concurrently and merge deterministically.

    Each component gets a copy-on-write overlay with a private counter
    bundle and the *shared* touched set (``share_touched=True`` -- the
    distinct-fact total is the growth of one union, charged under one lock).
    Worker threads may finish in any order; the merge runs on the calling
    thread in evaluation order, so journals, relation replacement and
    counter totals land exactly as sequential evaluation would have landed
    them.  Sharding is disabled inside the threads: forking is only safe
    from a quiescent main thread.
    """
    overlays = [
        Database.overlay(database, counters=Counters(), share_touched=True)
        for _ in components
    ]
    errors: List[BaseException] = []

    def run(entry: Tuple[Set[str], List[Rule]], overlay: Database) -> None:
        predicates, rules = entry
        try:
            evaluate_component(
                rules, predicates, overlay, overlay.counters, allow_sharding=False
            )
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(entry, overlay), daemon=True)
        for entry, overlay in zip(components, overlays)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for overlay in overlays:
        counters.absorb(overlay.counters)
        database.absorb_overlay(overlay)


def _fire_folds(
    rules: Iterable[Rule],
    database: Database,
    counters: Counters,
    delta: Optional[Database] = None,
) -> None:
    """Fire the aggregate folds among ``rules`` once over the current state."""
    for rule in rules:
        if not rule.is_aggregate:
            continue
        head_predicate = rule.head.predicate
        for head_row in aggregate_plan(rule).heads(database):
            counters.rule_firings += 1
            if database.add_fact(head_predicate, head_row):
                counters.derived_tuples += 1
                if delta is not None:
                    delta.add_fact(head_predicate, head_row)


def evaluate_component(
    rules: List[Rule],
    recursive_predicates: Set[str],
    database: Database,
    counters: Counters,
    allow_sharding: bool = True,
) -> None:
    """Seminaive iteration for one group of mutually recursive predicates.

    Both the round-0 full evaluation and the delta-restricted rounds run on
    compiled join plans (:mod:`repro.datalog.plans`); the delta rounds use
    one cached plan variant per recursive body occurrence, whose chosen
    occurrence reads the delta relation while every other literal reads the
    full database (including earlier deltas already merged into it).  Plan
    compilation rejects built-ins that can never become ground and negated
    literals the positive body never binds, so the deferral semantics cannot
    diverge from :func:`~repro.datalog.unify.satisfy_body` -- they are the
    same code path.  Aggregate rules fold once in round 0 (their inputs live
    in strictly lower strata and cannot change here); negated literals never
    read the delta (stratification puts them below this component).

    With parallelism armed (and ``allow_sharding`` true -- the parallel SCC
    scheduler passes false inside worker threads, where forking is unsafe),
    delta rounds of shard-eligible plans over large deltas run on the fork
    worker pool; see :class:`_ShardContext`.
    """
    scan_rules = [rule for rule in rules if not rule.is_aggregate]
    recursive_key = frozenset(recursive_predicates)
    # Round 0: fire every rule once over the current database.
    delta = Database()
    _fire_folds(rules, database, counters, delta)
    round0 = [(rule, rule_plan(rule, database=database)) for rule in scan_rules]
    for rule, plan in round0:
        _fire(plan, rule.head.predicate, database, None, counters, collect=delta)
    counters.iterations += 1

    # One plan variant per occurrence of a recursive predicate, with that
    # occurrence restricted to the delta.  Non-recursive rules have no
    # variants and cannot produce anything new after round 0.
    variants = [
        (rule, delta_plans(rule, recursive_key, database=database))
        for rule in scan_rules
    ]
    shard: Optional[_ShardContext] = None
    if (
        allow_sharding
        and _parallel.parallelism() > 1
        and _plans._mode != _plans._MODE_INTERPRETED
        and _storage_runtime._mode == MODE_KERNEL
        and _parallel.fork_available()
    ):
        shard = _ShardContext(database, recursive_key, variants)
        if not shard.plans:
            shard = None
    # Mid-fixpoint adaptive re-planning (cost mode).  The shard executor
    # only recognises the plan objects it was built with, so re-planned
    # variants run in process.  ``assumed`` records the cardinality each
    # recursive predicate was costed with when the current variants were
    # compiled.
    adaptive = _plans._plan_mode == _plans._PLAN_COST
    assumed: Dict[str, float] = {}
    if adaptive:
        for predicate in recursive_key:
            relation = database.relations.get(predicate)
            assumed[predicate] = (
                float(len(relation.table)) if relation is not None else 1.0
            )
    try:
        if shard is not None and shard.run_fixpoint(delta, counters):
            delta = Database()  # the offloaded fixpoint ran to completion
        while delta.total_facts():
            if adaptive:
                replanned = _adapt_delta_variants(
                    scan_rules, recursive_key, database, delta, assumed
                )
                if replanned is not None:
                    variants = replanned
            new_delta = Database()
            for rule, plans in variants:
                head_predicate = rule.head.predicate
                for plan in plans:
                    _fire(
                        plan, head_predicate, database, delta, counters,
                        collect=new_delta,
                        batch=shard.execute(plan, delta) if shard else None,
                    )
            counters.iterations += 1
            delta = new_delta
    finally:
        if shard is not None:
            shard.close()


#: Adaptive re-planning threshold: a delta round's observed cardinality
#: must diverge from the costed assumption by this factor (in either
#: direction) before the cached cost-based delta variants are re-costed.
_REPLAN_RATIO = 8.0


def _adapt_delta_variants(
    scan_rules: List[Rule],
    recursive_key: FrozenSet[str],
    database: Database,
    delta: Database,
    assumed: Dict[str, float],
) -> Optional[List[Tuple[Rule, List[object]]]]:
    """Swap in re-costed delta variants when the delta defies its estimate.

    Compares each recursive predicate's observed per-round delta size with
    the cardinality the current plans were costed under (``assumed``); when
    any diverges by :data:`_REPLAN_RATIO` or more, rebuilds every variant
    through :func:`~repro.datalog.plans.delta_plans` with the observed
    sizes as overrides (the builders' fingerprinted cache makes repeated
    same-magnitude re-plans cache hits), records a ``DL601`` planner event,
    and returns the replacement variants.  Returns ``None`` -- change
    nothing -- while estimates hold.
    """
    observed: Dict[str, float] = {}
    diverged: List[Tuple[str, float, float]] = []
    for predicate in sorted(recursive_key):
        relation = delta.relations.get(predicate)
        rows = float(len(relation.table)) if relation is not None else 0.0
        rows = max(rows, 1.0)
        observed[predicate] = rows
        previous = max(assumed.get(predicate, 1.0), 1.0)
        ratio = max(previous, rows) / min(previous, rows)
        if ratio >= _REPLAN_RATIO:
            diverged.append((predicate, previous, rows))
    if not diverged:
        return None
    assumed.update(observed)
    overrides = {predicate: int(rows) for predicate, rows in observed.items()}
    variants = [
        (
            rule,
            delta_plans(
                rule, recursive_key, database=database, overrides=overrides
            ),
        )
        for rule in scan_rules
    ]
    from ..datalog.diagnostics import CODES, Diagnostic

    predicate, previous, rows = diverged[0]
    _plans.record_planner_event(
        Diagnostic(
            code="DL601",
            severity=CODES["DL601"][0],
            message=(
                f"delta cardinality for '{predicate}' was costed at "
                f"~{previous:.0f} rows but a round observed {rows:.0f}; "
                "delta plan variants re-costed"
            ),
        )
    )
    return variants


# ---------------------------------------------------------------------------
# Level 2: sharded delta rounds on a fork worker pool
# ---------------------------------------------------------------------------

class _ShardContext:
    """Per-component orchestration of sharded delta rounds.

    Created by :func:`evaluate_component` when parallelism is armed; scoped
    to one component fixpoint so the invariants are simple: the relations a
    shard-eligible plan probes (:class:`~repro.datalog.plans.ShardRecipe`
    requires them outside the component) are never written while the
    context is alive, so a forked worker's inherited copy stays valid for
    the whole fixpoint.  The pool forks lazily, on the first round whose
    delta reaches :data:`_SHARD_MIN_ROWS`, and re-forks if the interner has
    grown past a shipped code (a new head *constant* -- derived values
    otherwise reuse codes allocated before the fork) or a probed relation
    changed identity (defensive; cannot happen within one component).

    Counter parity is replayed, not approximated: for eligible shapes the
    step-0 delta scan is uncharged (the delta is runtime scratch with its
    own counters) and every probed bucket row of the keyed step yields
    exactly one head row, so the parent charges ``fact_retrievals`` and
    ``rule_firings`` by the workers' *produced* row counts (pre-pruning;
    see :func:`_shard_worker`) and ``distinct_facts`` by the growth of its
    touched set under the workers' reported probe rows.  Bucket charging
    memos are deliberately *not* replayed -- they are total-preserving
    optimizations, so a later sequential round re-walking a bucket charges
    identically.
    """

    def __init__(
        self,
        database: Database,
        recursive_predicates: FrozenSet[str],
        variants,
    ) -> None:
        self.database = database
        self.workers = _parallel.parallelism()
        self.interner = global_interner()
        #: Shard-eligible plans, in variant order; workers address them by
        #: index through the fork-inherited pool state.
        self.plans: List[object] = []
        self._recipes: Dict[int, Tuple[int, object]] = {}
        total_plans = 0
        for _rule, plans in variants:
            for plan in plans:
                total_plans += 1
                recipe = plan.shard_recipe()
                if recipe is None or recipe.probe_predicate in recursive_predicates:
                    continue
                self._recipes[id(plan)] = (len(self.plans), recipe)
                self.plans.append(plan)
        # Whole-fixpoint offload needs the round loop fully covered by one
        # shard-eligible plan carrying an invariant column: then partitions
        # never exchange rows and each worker can run its delta rounds to
        # completion without per-round synchronisation.
        self.fixpoint_recipe = None
        if total_plans == 1 and len(self.plans) == 1:
            only = self.plans[0].shard_recipe()
            if only is not None and only.invariant_position is not None:
                self.fixpoint_recipe = only
        self.pool: Optional[_parallel.WorkerPool] = None
        self._failed = False
        self._fork_len = 0
        self._frozen: Dict[str, Tuple[Optional[Relation], int]] = {}

    # -- pool lifecycle ----------------------------------------------------

    def _fork(self) -> None:
        self.close()
        if self._failed:
            return
        self._fork_len = len(self.interner)
        self._frozen = {}
        for _index, recipe in self._recipes.values():
            relation = self.database.relations.get(recipe.probe_predicate)
            self._frozen[recipe.probe_predicate] = (
                relation,
                relation.table.mutations if relation is not None else -1,
            )
        try:
            self.pool = _parallel.WorkerPool(
                self.workers, state=(self.database, self.plans)
            )
        except _parallel.WorkerError:
            self._failed = True
            self.pool = None

    def _fresh(self, recipe) -> bool:
        relation = self.database.relations.get(recipe.probe_predicate)
        current = (
            relation,
            relation.table.mutations if relation is not None else -1,
        )
        return self._frozen.get(recipe.probe_predicate) == current

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # -- dispatch ----------------------------------------------------------

    def execute(self, plan, delta: Database) -> Optional[List[Row]]:
        """Run one delta round of ``plan`` on the pool; merged heads or None.

        ``None`` sends the caller to the ordinary sequential batch path:
        the plan is not shard-eligible, the delta is below the threshold,
        or the pool is unavailable (fork failed, or a worker died -- in
        which case no charge has been applied and the sequential re-run is
        exact).
        """
        entry = self._recipes.get(id(plan))
        if entry is None:
            return None
        index, recipe = entry
        delta_relation = delta.relations.get(recipe.delta_predicate)
        if delta_relation is None:
            return None
        table = delta_relation.table
        if len(table) < _SHARD_MIN_ROWS:
            return None
        if self.pool is None or not self.pool.alive:
            self._fork()
        if self.pool is None:
            return None
        arrays = table.column_arrays()
        stale = len(self.interner) != self._fork_len and any(
            len(column) and max(column) >= self._fork_len for column in arrays
        )
        if stale or not self._fresh(recipe):
            self._fork()
            if self.pool is None:
                return None
        # One payload, sent to every worker: each filters its own shard by
        # ``lead_code % workers``, so the parent never partitions rows.
        col_bytes = [column.tobytes() for column in arrays]
        tasks = [
            ("shard_join", (index, self.workers, windex, col_bytes))
            for windex in range(self.workers)
        ]
        try:
            results = self.pool.run(tasks)
        except _parallel.WorkerError:
            self._failed = True
            self.close()
            return None
        return self._merge(plan, recipe, results)

    def _merge(self, plan, recipe, results) -> List[Row]:
        """Decode shard results in worker order and replay the charges."""
        started = time.perf_counter()
        database = self.database
        counters = database.counters
        value_of = self.interner._value_of
        head_arity = len(plan.head_template)
        probe_relation = database.relations.get(recipe.probe_predicate)
        rows_map = probe_relation.table.rows_map if probe_relation is not None else {}
        probe_arity = probe_relation.arity if probe_relation is not None else 0
        predicate = recipe.probe_predicate
        touched = database._touched
        before = len(touched)
        batch_stats = counters.batch
        heads: List[Row] = []
        produced_total = 0
        for produced, count, flat, fallback, touched_blob, stats in results:
            produced_total += produced
            if count:
                codes = array("q")
                codes.frombytes(flat)
                if head_arity:
                    values = [value_of[code] for code in codes]
                    grouped = list(zip(*(iter(values),) * head_arity))
                else:
                    grouped = [()] * (count - len(fallback))
                if fallback:
                    # Re-interleave the value-shipped rows (head constants
                    # the child's interner copy has never seen) at their
                    # original indices, preserving the child's row order.
                    merged: List[Row] = []
                    grouped_index = 0
                    fallback_index = 0
                    for i in range(count):
                        if (
                            fallback_index < len(fallback)
                            and fallback[fallback_index][0] == i
                        ):
                            merged.append(fallback[fallback_index][1])
                            fallback_index += 1
                        else:
                            merged.append(grouped[grouped_index])
                            grouped_index += 1
                    heads.extend(merged)
                else:
                    heads.extend(grouped)
            if touched_blob and probe_arity:
                tcodes = array("q")
                tcodes.frombytes(touched_blob)
                chunks = iter(tcodes)
                for introw in zip(*(chunks,) * probe_arity):
                    row = rows_map.get(introw)
                    if row is None:
                        row = tuple(value_of[code] for code in introw)
                    touched.add((predicate, row))
            batches, rows_in, rows_out, fallbacks, nodes = stats
            batch_stats.batches += batches
            batch_stats.rows_in += rows_in
            batch_stats.rows_out += rows_out
            batch_stats.fallbacks += fallbacks
            for key, node_batches, node_in, node_out in nodes:
                cell = batch_stats.node(key)
                cell[0] += node_batches
                cell[1] += node_in
                cell[2] += node_out
        counters.fact_retrievals += produced_total
        # The caller fires the rule once per *returned* row; the workers
        # pruned already-present duplicates, so account for those here --
        # the sequential run fires once per produced row.
        counters.rule_firings += produced_total - len(heads)
        counters.distinct_facts += len(touched) - before
        batch_stats.shards += len(results)
        batch_stats.merge_seconds += time.perf_counter() - started
        return heads

    # -- whole-fixpoint offload --------------------------------------------

    def run_fixpoint(self, delta: Database, counters: Counters) -> bool:
        """Run the component's entire delta-round loop on the pool.

        Eligible when the loop consists of exactly one shard-eligible plan
        whose recipe carries an invariant column (see
        :class:`~repro.datalog.plans.ShardRecipe`): the initial delta is
        partitioned by the invariant column's code, each worker iterates
        its partition to a local fixpoint (partitions are closed under the
        rule, so local completion is global completion), and the parent
        inserts the union of novel rows once.  ``True`` means the fixpoint
        is complete and the caller must skip the round loop; ``False``
        falls back to per-round evaluation with nothing charged.

        Counter parity: ``fact_retrievals`` and ``rule_firings`` are the
        summed produced-row counts (exact for the eligible shape, round by
        round); ``derived_tuples`` is the insert count of the disjoint
        novel unions; ``distinct_facts`` is parent touched-set growth; and
        ``iterations`` is the *maximum* worker round count -- the
        sequential loop runs until every partition's frontier is empty, so
        its round count is exactly the deepest partition's.
        """
        recipe = self.fixpoint_recipe
        if recipe is None:
            return False
        if any(
            predicate != recipe.delta_predicate and len(relation.table)
            for predicate, relation in delta.relations.items()
        ):
            # Foreign rows in the seed delta would keep the sequential loop
            # spinning on rounds our workers never see; stay sequential.
            return False
        delta_relation = delta.relations.get(recipe.delta_predicate)
        if delta_relation is None:
            return False
        table = delta_relation.table
        if len(table) < _SHARD_MIN_ROWS:
            return False
        self._fork()
        if self.pool is None:
            return False
        col_bytes = [column.tobytes() for column in table.column_arrays()]
        tasks = [
            ("shard_fixpoint", (0, self.workers, windex, col_bytes))
            for windex in range(self.workers)
        ]
        try:
            results = self.pool.run(tasks)
        except _parallel.WorkerError:
            self._failed = True
            self.close()
            return False
        self._merge_fixpoint(recipe, results, counters)
        return True

    def _merge_fixpoint(self, recipe, results, counters: Counters) -> None:
        started = time.perf_counter()
        database = self.database
        plan = self.plans[0]
        value_of = self.interner._value_of
        head_predicate = plan.head.predicate
        head_arity = len(plan.head_template)
        probe_relation = database.relations.get(recipe.probe_predicate)
        rows_map = probe_relation.table.rows_map if probe_relation is not None else {}
        probe_arity = probe_relation.arity if probe_relation is not None else 0
        touched = database._touched
        before = len(touched)
        batch_stats = database.counters.batch
        # The workers' dedup is exact and their shards disjoint, so every
        # shipped row is novel: on an unshared head table the insert is a
        # straight dict update over C-level zips -- the single largest
        # serial cost of the offload (``IntTable.merge_novel_coded``).
        # Column caches extend with strided slices, subset indexes defer
        # through the lag replay exactly as ``add_many`` does; only sharing
        # or an adjacency cache sends the rows through the checked path.
        head_relation = database.relations.get(head_predicate)
        table = head_relation.table if head_relation is not None else None
        bulk = (
            table is not None
            and head_predicate not in database._shared
            and table.can_bulk_merge
        )
        slow_rows: List[Row] = []
        derived = 0
        produced_total = 0
        rounds_max = 0
        for produced, rounds, flat, value_rows, touched_blob, stats in results:
            produced_total += produced
            rounds_max = max(rounds_max, rounds)
            codes = array("q")
            codes.frombytes(flat)
            if codes and head_arity:
                introws = list(zip(*(iter(codes),) * head_arity))
                values = map(value_of.__getitem__, codes)
                rows = list(zip(*(values,) * head_arity))
                if bulk:
                    table.merge_novel_coded(introws, rows, codes, head_arity)
                    database._journal.extend(
                        zip(_repeat(head_predicate), rows, _repeat(True))
                    )
                    derived += len(rows)
                else:
                    slow_rows.extend(rows)
            slow_rows.extend(value_rows)
            if touched_blob and probe_arity:
                tcodes = array("q")
                tcodes.frombytes(touched_blob)
                chunks = iter(tcodes)
                for introw in zip(*(chunks,) * probe_arity):
                    row = rows_map.get(introw)
                    if row is None:
                        row = tuple(value_of[code] for code in introw)
                    touched.add((recipe.probe_predicate, row))
            batches, rows_in, rows_out, fallbacks, nodes = stats
            batch_stats.batches += batches
            batch_stats.rows_in += rows_in
            batch_stats.rows_out += rows_out
            batch_stats.fallbacks += fallbacks
            for key, node_batches, node_in, node_out in nodes:
                cell = batch_stats.node(key)
                cell[0] += node_batches
                cell[1] += node_in
                cell[2] += node_out
        if derived and database._charged:
            database._charged.pop(head_predicate, None)
        derived += len(database.add_rows(head_predicate, slow_rows))
        counters.rule_firings += produced_total
        counters.derived_tuples += derived
        counters.iterations += rounds_max
        database.counters.fact_retrievals += produced_total
        database.counters.distinct_facts += len(touched) - before
        batch_stats.shards += len(results)
        batch_stats.merge_seconds += time.perf_counter() - started


#: Child-process-only memory of the head rows known to exist, per plan
#: index: the fork snapshot's head table plus every delta row and every
#: novel head seen since.  The parent's copy stays empty (only forked
#: workers execute shard tasks), so a re-fork starts children clean
#: against the then-fresh snapshot.
_SHARD_SEEN: Dict[int, Set[Tuple[int, ...]]] = {}


def _shard_worker(payload):
    """The forked worker's half of one shard task (see :class:`_ShardContext`).

    Runs in a child process whose memory is a copy-on-write snapshot of the
    parent at pool-fork time: the database object, compiled plans and the
    interner arrive by inheritance, the task payload carries only the plan
    index, the shard arithmetic and the delta's packed code columns.  The
    child swaps the database's observables (counters, touched set, charging
    memos) for fresh ones per task -- everything it mutates is private to
    its copy -- evaluates its shard through the ordinary batch executor,
    and ships back coded head rows, the distinct probe rows it touched and
    its batch telemetry.

    Head rows that provably already exist in the parent's head relation are
    pruned before shipping: the fork-inherited table, every delta row seen
    since (for a self-recursive rule the round-``r`` delta *is* what the
    parent inserted in round ``r-1``), and this worker's own earlier
    shipments are all guaranteed to be present, and the parent's
    ``add_rows`` would discard them anyway.  Pruning moves the dominant
    dedup cost of dense fixpoints into the pool; the pre-prune ``produced``
    count still travels back, because the charging contract (one
    ``fact_retrieval`` and one ``rule_firing`` per probed bucket row) is
    defined over produced rows, not novel ones.
    """
    index, workers, windex, col_bytes = payload
    database, plans = _parallel.pool_state()
    plan = plans[index]
    recipe = plan.shard_recipe()
    columns: List[array] = []
    for blob in col_bytes:
        column = array("q")
        column.frombytes(blob)
        columns.append(column)
    head_predicate = plan.head.predicate
    seen = _SHARD_SEEN.setdefault(index, set())
    if recipe.delta_predicate == head_predicate:
        # Every worker receives the full (unsharded) delta, so this stays
        # exactly the set of head rows inserted since the fork, no matter
        # which worker derived them.
        seen.update(zip(*columns))
    head_relation = database.relations.get(head_predicate)
    known = head_relation.table.rows_map if head_relation is not None else {}
    lead = columns[recipe.lead_position]
    keep = [i for i in range(len(lead)) if lead[i] % workers == windex]
    arity = len(columns)
    shard = Database()
    relation = Relation(recipe.delta_predicate, arity)
    if keep:
        if arity == 2:
            first, second = columns
            relation.table.add_coded_rows([(first[i], second[i]) for i in keep])
        else:
            relation.table.add_coded_rows(
                [tuple(column[i] for column in columns) for i in keep]
            )
    shard.relations[recipe.delta_predicate] = relation
    counters = Counters()
    database.counters = counters
    database._touched = set()
    database._charged = {}
    database._probe_cache.clear()
    database._charge_lock = None
    heads = plan.head_batch(database, derived=shard, frozen=True)
    if heads is None:  # pragma: no cover - SAFE shapes cannot fall back
        raise RuntimeError("shard-eligible plan fell back to the row loop")
    row_code_of = relation.table.interner.row_code_of
    flat = array("q")
    fallback: List[Tuple[int, Row]] = []
    novel = 0
    for row in heads:
        introw = row_code_of(row)
        if introw is None:
            # A head constant this child's interner copy has never coded is
            # novel by construction; ship it by value.
            fallback.append((novel, row))
            novel += 1
        elif introw in known or introw in seen:
            continue
        else:
            seen.add(introw)
            flat.extend(introw)
            novel += 1
    touched = array("q")
    for _predicate, row in database._touched:
        touched.extend(row_code_of(row))
    batch = counters.batch
    nodes = [
        (key, cell[0], cell[1], cell[2]) for key, cell in batch.nodes.items()
    ]
    return (
        len(heads),
        novel,
        flat.tobytes(),
        fallback,
        touched.tobytes(),
        (batch.batches, batch.rows_in, batch.rows_out, batch.fallbacks, nodes),
    )


_parallel.register_task("shard_join", _shard_worker)


def _shard_fixpoint_worker(payload):
    """Iterate one invariant-column partition to its local fixpoint.

    The forked child receives the component's *seed* delta (the round-0
    insertions, already present in the fork-inherited head table), keeps
    the rows whose invariant-column code hashes to its shard, and runs the
    ordinary delta-round loop over them entirely locally: because the
    invariant column passes unchanged from the recursive body literal to
    the head, every row derivable from this shard stays in this shard, so
    no inter-worker exchange or per-round synchronisation is needed --
    the expensive part of :func:`_shard_worker`'s protocol.

    Duplicate pruning is exact, which the termination argument requires:
    the fork-inherited head table covers everything the parent knew, and
    the local ``seen`` set covers everything this partition derived since.
    Head rows containing a value the inherited interner never coded are
    interned *locally* so ``seen`` membership stays coded; such rows (any
    code at or above the fork-time interner length) are shipped by value,
    since child-local codes mean nothing to the parent.

    Returns pre-pruning ``produced`` (the charging contract counts probed
    bucket rows, and for eligible shapes each yields one head row) and the
    local round count; the parent takes the max of the latter -- the
    sequential loop iterates until the *deepest* partition's frontier
    empties.
    """
    index, workers, windex, col_bytes = payload
    database, plans = _parallel.pool_state()
    plan = plans[index]
    recipe = plan.shard_recipe()
    interner = global_interner()
    base_len = len(interner)
    columns: List[array] = []
    for blob in col_bytes:
        column = array("q")
        column.frombytes(blob)
        columns.append(column)
    arity = len(columns)
    head_predicate = plan.head.predicate
    head_relation = database.relations.get(head_predicate)
    known = head_relation.table.rows_map if head_relation is not None else {}
    invariant = columns[recipe.invariant_position]
    keep = [i for i in range(len(invariant)) if invariant[i] % workers == windex]
    current = [tuple(column[i] for column in columns) for i in keep]
    rflat = array("q")
    for introw in current:
        rflat.extend(introw)
    counters = Counters()
    database.counters = counters
    database._touched = set()
    database._charged = {}
    database._probe_cache.clear()
    database._charge_lock = None
    code_item = interner._code_of.__getitem__
    code_get = interner._code_of.get
    introw_of = interner._introw_of
    memo_get = introw_of.get
    intern_row = interner.intern_row
    # When every head constant is already coded below the fork length, no
    # derivable row can contain a child-local code (column values all come
    # from pre-fork rows), so the per-row code-range check is dead weight.
    flat_safe = True
    for slot, value in plan.head_template:
        if slot is None:
            code = code_get(value)
            if code is None or code >= base_len:
                flat_safe = False
    seen: Set[Tuple[int, ...]] = set()
    flat = array("q")
    value_rows: List[Row] = []
    produced = 0
    rounds = 0
    while current:
        rounds += 1
        shard = Database()
        relation = Relation(recipe.delta_predicate, arity)
        # Seed the scratch table columnarly: the step-0 scan only reads the
        # code columns, the interner and the row-map *keys*, so the value
        # tuples ``add_coded_rows`` would decode are never looked at.
        relation.table.seed_coded_rows(
            current, [rflat[position::arity] for position in range(arity)]
        )
        shard.relations[recipe.delta_predicate] = relation
        heads = plan.head_batch(database, derived=shard, frozen=True)
        if heads is None:  # pragma: no cover - SAFE shapes cannot fall back
            raise RuntimeError("shard-eligible plan fell back to the row loop")
        produced += len(heads)
        current = []
        rflat = array("q")
        if flat_safe:
            for row, introw in zip(heads, map(memo_get, heads)):
                if introw is None:
                    introw = tuple(map(code_item, row))
                    introw_of[row] = introw
                if introw in seen or introw in known:
                    continue
                seen.add(introw)
                current.append(introw)
                rflat.extend(introw)
            flat.extend(rflat)
        else:
            for row, introw in zip(heads, map(memo_get, heads)):
                if introw is None:
                    try:
                        introw = tuple(map(code_item, row))
                    except KeyError:
                        introw = intern_row(row)
                    introw_of[row] = introw
                if introw in seen or introw in known:
                    continue
                seen.add(introw)
                current.append(introw)
                rflat.extend(introw)
                if max(introw, default=0) < base_len:
                    flat.extend(introw)
                else:
                    value_rows.append(row)
    touched = array("q")
    for _predicate, row in database._touched:
        touched.extend(map(code_item, row))
    batch = counters.batch
    nodes = [
        (key, cell[0], cell[1], cell[2]) for key, cell in batch.nodes.items()
    ]
    return (
        produced,
        rounds,
        flat.tobytes(),
        value_rows,
        touched.tobytes(),
        (batch.batches, batch.rows_in, batch.rows_out, batch.fallbacks, nodes),
    )


_parallel.register_task("shard_fixpoint", _shard_fixpoint_worker)


# ---------------------------------------------------------------------------
# Incremental continuation (the resume path of the engine contract)
# ---------------------------------------------------------------------------

def resume_stratified(
    program: Program,
    database: Database,
    edb_delta,
    counters: Optional[Counters] = None,
    analysis: Optional[ProgramAnalysis] = None,
) -> Tuple[Database, int]:
    """Bring a materialized model up to date after an EDB delta.

    ``database`` must hold a complete model of ``program`` over its previous
    extensional state; ``edb_delta`` is either a plain ``{predicate: rows}``
    mapping of newly inserted rows (the pre-deletion contract) or a signed
    :class:`~repro.datalog.database.Delta` carrying inserts *and* deletes.
    Returns ``(database, newly_derived_count)`` where the database is the
    *same instance* for positive programs (deletions maintained in place by
    delete-rederive, insertions by the seminaive continuation -- deletions
    first, so the insertion rounds run over the already-repaired model) and
    a fresh copy-on-write replacement for stratified programs (evaluation
    restarted at the lowest stratum whose inputs the delta touches; see the
    module docstring).  Rows on derived predicates are rejected with
    :class:`ValueError`.
    """
    counters = counters if counters is not None else database.counters
    analysis = analysis or analyze(program)
    derived_predicates = program.derived_predicates

    delta = Delta.coerce(edb_delta)
    for predicate in delta.predicates():
        if predicate in derived_predicates:
            raise ValueError(
                f"cannot resume with facts for derived predicate {predicate!r}"
            )

    if not program.is_positive:
        return _resume_non_monotone(program, analysis, database, delta, counters)

    new_tuples = 0
    if delta.has_deletes:
        # The delete rows are treated as deleted even when already invisible
        # in ``database`` -- mirroring the insertion convention below, a
        # copy-on-write materialization can see a deletion made to the
        # database it was built over before its consequences have been
        # retracted, and overdeleting from a long-gone row only schedules
        # still-valid tuples for rederivation.
        removed = Database()
        for predicate, rows in delta.deletes.items():
            for row in rows:
                removed.add_fact(predicate, row)
        if removed.total_facts():
            _dred_delete(program, analysis, database, removed, counters)

    # The cross-component changed set: the EDB insert delta plus, as
    # evaluation proceeds, every derived tuple added by an earlier
    # component.  The delta rows are treated as changed even when they are
    # already visible in ``database`` -- a copy-on-write materialization can
    # see an insertion made to the database it was built over before its
    # consequences have been derived, and firing a genuinely old row again
    # only rediscovers existing facts.
    changed = Database()
    for predicate, rows in delta.inserts.items():
        for row in rows:
            database.add_fact(predicate, row)
            changed.add_fact(predicate, row)
    if changed.total_facts():
        new_tuples = _resume_positive(program, analysis, database, changed, counters)
    return database, new_tuples


def _resume_positive(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    changed: Database,
    counters: Counters,
) -> int:
    """The monotone continuation: seminaive rounds seeded with the delta."""
    derived_predicates = program.derived_predicates
    new_tuples = 0
    for component in analysis.evaluation_order():
        component_predicates = set(component) & derived_predicates
        if not component_predicates:
            continue
        rules = [
            rule
            for predicate in component_predicates
            for rule in program.rules_for(predicate)
            if rule.body
        ]
        new_tuples += _resume_component(
            rules, component_predicates, database, changed, counters
        )
    return new_tuples


def _resume_component(
    rules: List[Rule],
    recursive_predicates: Set[str],
    database: Database,
    changed: Database,
    counters: Counters,
) -> int:
    """Delta-seeded seminaive iteration for one mutually recursive group.

    ``changed`` holds every row that is new since the materialized fixpoint
    (EDB delta plus earlier components' derivations); new rows produced here
    are merged back into it so later components see them as deltas too.
    """
    changed_predicates = frozenset(
        predicate for predicate in changed.predicates() if changed.count(predicate)
    )
    new_tuples = 0

    # Incremental round 0: one plan variant per occurrence of an
    # already-changed predicate, that occurrence restricted to the changed
    # rows, every other literal reading the full updated database.  A rule
    # mentioning no changed predicate has no variants and never fires, and
    # the delta occurrence drives the join (``delta_first``), so the round's
    # work is proportional to the delta, not to the full relations.
    delta = Database()
    fired = False
    for rule in rules:
        head_predicate = rule.head.predicate
        for plan in delta_plans(
            rule, changed_predicates, delta_first=True, database=database
        ):
            fired = True
            new_tuples += _fire(
                plan, head_predicate, database, changed, counters, collect=delta
            )
    if not fired:
        return 0
    counters.iterations += 1

    # Ordinary recursive delta rounds, delta-driven like round 0.
    recursive_key = frozenset(recursive_predicates)
    variants = [
        (rule, delta_plans(rule, recursive_key, delta_first=True, database=database))
        for rule in rules
    ]
    while delta.total_facts():
        for predicate in delta.predicates():
            changed.add_facts(predicate, delta.rows(predicate))
        new_delta = Database()
        for rule, plans in variants:
            head_predicate = rule.head.predicate
            for plan in plans:
                new_tuples += _fire(
                    plan, head_predicate, database, delta, counters,
                    collect=new_delta,
                )
        counters.iterations += 1
        delta = new_delta
    return new_tuples


def _dred_delete(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    removed: Database,
    counters: Counters,
) -> None:
    """Delete-rederive (DRed) maintenance for a positive program, in place.

    ``removed`` holds the deleted EDB rows; ``database`` holds the complete
    model over the pre-deletion extensional state.

    *Overdelete.*  Seeded with the EDB deletions, each round fires every
    rule through its ``delta_first`` plan variants with the chosen
    occurrence reading the current delete-frontier and every other literal
    reading the pre-deletion database, so a derived tuple joins the
    overdeletion set as soon as any of its derivations is discovered to
    pass through a deleted tuple.  The deleted EDB rows are kept visible --
    re-added first, in case a copy-on-write leak already dropped them --
    until the fixpoint completes: an instantiation using *two* deleted
    tuples must remain discoverable from either occurrence.

    *Remove.*  The deleted EDB rows and every overdeleted derived row are
    physically removed (the storage kernel maintains its indexes
    incrementally under removal).

    *Rederive.*  Every overdeleted tuple that still has a derivation from
    the surviving facts is reinserted.  The rederivation is set-at-a-time:
    per defining rule, a *guarded* plan variant scans the overdeleted set
    as its outermost occurrence (a synthetic extra occurrence of the head
    literal, compiled through the ordinary ``delta_plan`` machinery) and
    joins the rest of the body against the surviving database, so one plan
    execution settles every candidate of the rule instead of one probe per
    tuple.  Predicates are visited in component evaluation order so lower
    support is restored before it is needed, and the reinsertions are
    propagated through the ordinary delta-seeded seminaive rounds
    (:func:`_resume_positive`), which resurrect any overdeleted tuple they
    transitively re-support.  Cyclically self-supporting tuples stay
    deleted: the guarded joins run against the post-removal database,
    which is exactly the well-foundedness DRed needs.
    """
    for predicate in removed.predicates():
        database.add_facts(predicate, removed.relations[predicate].table.all_rows())

    delta_predicates = frozenset(program.predicates)
    scan_rules = [rule for rule in program.idb_rules() if not rule.is_aggregate]
    variants = [
        (rule, delta_plans(rule, delta_predicates, delta_first=True, database=database))
        for rule in scan_rules
    ]
    overdeleted = Database()
    frontier = removed
    while frontier.total_facts():
        next_frontier = Database()
        for rule, plans in variants:
            head_predicate = rule.head.predicate
            for plan in plans:
                # The overdelete loop never mutates ``database`` (it only
                # accumulates into ``overdeleted``/``next_frontier``), so
                # even self-feeding-shaped plans batch without verification.
                _fire(
                    plan, head_predicate, database, frontier, counters,
                    collect=next_frontier, target=overdeleted, derive=False,
                    frozen=True,
                )
        counters.iterations += 1
        frontier = next_frontier

    for source in (removed, overdeleted):
        for predicate in source.predicates():
            for row in list(source.relations[predicate].table.all_rows()):
                database.remove_fact(predicate, row)

    if not overdeleted.total_facts():
        return
    component_order: Dict[str, int] = {}
    for index, component in enumerate(analysis.evaluation_order()):
        for predicate in component:
            component_order[predicate] = index
    rederived = Database()
    for predicate in sorted(
        overdeleted.predicates(), key=lambda p: component_order.get(p, 0)
    ):
        for rule in program.rules_for(predicate):
            if not rule.body:
                continue
            # The guarded variant: a synthetic extra occurrence of the head
            # literal, placed outermost and reading the overdeleted set, so
            # the join enumerates exactly the rule's still-derivable
            # candidates.  ``delta_occurrence=0`` is the guard itself; every
            # other occurrence of ``predicate`` reads the surviving database.
            guarded = Rule(rule.head, (rule.head,) + rule.body)
            plan = delta_plan(
                guarded, frozenset((predicate,)), 0, delta_first=True, database=database
            )
            _fire(
                plan, predicate, database, overdeleted, counters,
                collect=rederived, derive=False,
            )
    if rederived.total_facts():
        _resume_positive(program, analysis, database, rederived, counters)


def _resume_non_monotone(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    delta: Delta,
    counters: Counters,
) -> Tuple[Database, int]:
    """The stratified resume: apply the signed EDB delta, restart above it.

    Both signs are non-monotone through negation and aggregation -- a new
    fact below a ``not`` can retract consequences above it, a deleted one
    can create them -- so the delta is applied to the extensional relations
    and every stratum from the lowest one reading a touched predicate is
    recomputed; see :func:`_restart_from_lowest_affected`.  Delta rows are
    treated as touching their predicate even when the mutation itself is a
    no-op here (a copy-on-write materialization can see the base database's
    writes before their consequences are maintained).
    """
    touched = {p for p, rows in delta.inserts.items() if rows} | {
        p for p, rows in delta.deletes.items() if rows
    }
    for predicate, rows in delta.deletes.items():
        for row in rows:
            database.remove_fact(predicate, row)
    for predicate, rows in delta.inserts.items():
        for row in rows:
            database.add_fact(predicate, row)
    if not touched:
        return database, 0
    return _restart_from_lowest_affected(program, analysis, database, touched, counters)


def _restart_from_lowest_affected(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    changed_predicates: Set[str],
    counters: Counters,
) -> Tuple[Database, int]:
    """The non-monotone resume: recompute every stratum the delta can reach.

    The replacement database shares the extensional relations and every
    derived relation of the strata *below* the restart point copy-on-write
    (reusing those cached models untouched) and simply omits the rest before
    re-running the stratum scheduler from the restart point.
    """
    stratification = Stratification.of(program, analysis)
    restart = stratification.lowest_affected_stratum(changed_predicates)
    if restart is None:
        return database, 0
    derived_predicates = program.derived_predicates
    dropped: Set[str] = set()
    for stratum in stratification.strata[restart:]:
        dropped |= stratum.predicates & derived_predicates
    rebuilt = Database.overlay(database, counters=counters, exclude=dropped)
    before = counters.derived_tuples
    for stratum in stratification.strata[restart:]:
        if stratification.stratum_rules(stratum):
            _seminaive_stratum(stratum, program, rebuilt, counters)
    return rebuilt, counters.derived_tuples - before
