"""Incremental query sessions: materialize once, answer many, resume on growth.

A :class:`QuerySession` binds a program to a slowly-growing extensional
database and serves repeated queries from cached materializations instead of
re-running a fixpoint per query:

* the first query under a strategy builds that strategy's
  :class:`~repro.engines.base.Materialization` (full least model for the
  bottom-up model engines, a per-query demand cache for the constant-driven
  strategies) and caches it per strategy, with the database version it
  reflects (``basis_version``);
* subsequent queries answer from the cache -- a relation lookup or a
  memoized traversal result;
* :meth:`QuerySession.insert_facts` appends to the database, advances its
  version and *resumes* every cached materialization with exactly the
  inserted delta (:meth:`~repro.engines.base.Engine.resume`): the model
  engines continue the fixpoint seminaively from the new facts, magic
  continues each cached query's rewritten-program fixpoint, and the
  traversal strategies refresh affected cached queries lazily;
* :meth:`QuerySession.retract_facts` deletes from the database and resumes
  the caches with the signed delta: the model engines run delete-rederive
  (DRed) maintenance -- overdelete every tuple with a derivation through a
  deleted fact, rederive the survivors -- instead of rematerializing from
  scratch, and the demand strategies invalidate affected cached queries
  lazily, exactly as for insertions;
* the serving strategy is picked per query (``engine=None``) by
  :func:`select_engine`, which reuses the planner's program classification
  (:func:`repro.core.planner.classify_query`) plus the engines' own
  ``applicable`` checks.

The session is the architectural seam for heavy repeated traffic: the
one-shot engines stay exactly as the paper describes them, and all
amortization lives here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..config import current_config
from ..core.planner import classify_query, estimate_strategy_costs
from ..datalog.analysis import ProgramAnalysis, analyze
from ..datalog.database import Database
from ..datalog.literals import Literal
from ..datalog.parser import parse_query
from ..datalog.rules import Program
from ..datalog.terms import Constant, Variable
from ..datalog.plans import drain_planner_events, rule_plan
from ..datalog.transform import optimize
from ..engines import Engine, EngineResult, Materialization, get_engine
from ..instrumentation import Counters
from .facts import program_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.diagnostics import Diagnostic

QueryLike = Union[str, Literal]

#: Strategies a session may auto-select, in no particular order.  The model
#: fallback must be able to serve any query, so it is always "seminaive".
_MODEL_FALLBACK = "seminaive"


def select_engine(
    program: Program,
    query: Literal,
    analysis: Optional[ProgramAnalysis] = None,
    database: Optional[Database] = None,
) -> str:
    """Pick a serving strategy for ``query`` under session semantics.

    Reuses the planner's static classification plus the candidate engines'
    ``applicable`` checks:

    * ``"base"`` queries (and anything the special methods cannot handle)
      are served from the seminaive model materialization, which answers
      every query over the program by lookup and resumes incrementally;
    * linear binary-chain programs queried with a bound first argument go to
      the paper's graph-traversal engine -- demand caching avoids ever
      materializing the full (typically quadratic) derived relation;
    * other adornable queries with at least one bound argument go to magic
      sets, whose cached fixpoints are seminaively resumable per query;
    * everything else falls back to the model.

    Under ``configured(plan="cost")`` -- and when a ``database`` to measure is
    supplied -- the static choice is additionally checked against
    :func:`repro.core.planner.estimate_strategy_costs`: the session
    switches to a differently-classified applicable strategy only when the
    estimates say the static choice is more than twice as expensive, so
    ties and near-ties keep the legacy behaviour.
    """
    analysis = analysis or analyze(program)
    if not program.is_positive:
        # Stratified programs are served by the model materialization: it
        # answers every query by lookup and its resume path knows how to
        # restart at the lowest affected stratum (the demand strategies all
        # reject non-positive programs).
        return _MODEL_FALLBACK
    classification = classify_query(program, query, analysis)
    has_bound = any(isinstance(term, Constant) for term in query.args)
    choice = _MODEL_FALLBACK
    if classification != "base" and has_bound:
        if classification in ("graph", "chain") and get_engine("graph").applicable(
            program, query
        ):
            choice = "graph"
        elif get_engine("magic").applicable(program, query):
            choice = "magic"
    if (
        database is None
        or classification == "base"
        or current_config().plan != "cost"
    ):
        return choice
    # Cost mode: let the statistics overrule the static pick, with a 2x
    # legacy-preference margin.
    candidates = {choice, _MODEL_FALLBACK}
    if has_bound:
        if get_engine("graph").applicable(program, query):
            candidates.add("graph")
        if get_engine("magic").applicable(program, query):
            candidates.add("magic")
    costs = estimate_strategy_costs(program, query, database, analysis)
    chosen_cost = costs.get(choice, float("inf"))
    best = min(sorted(candidates), key=lambda name: costs.get(name, float("inf")))
    best_cost = costs.get(best, float("inf"))
    if best != choice and chosen_cost > 2.0 * best_cost:
        return best
    return choice


class PreparedQuery:
    """A parameterized query template bound to a session.

    Created by :meth:`QuerySession.prepare`; calling it substitutes the
    parameter values for the declared parameter variables (every occurrence)
    and serves the resulting query through the session:

    >>> ancestors = session.prepare("anc(X, Y)", params=("X",))
    >>> ancestors("ann").answers      # doctest: +SKIP
    """

    def __init__(
        self,
        session: "QuerySession",
        literal: Literal,
        params: Sequence[str],
        engine: Optional[str] = None,
    ):
        self.session = session
        self.literal = literal
        self.engine = engine
        variables = {term.name for term in literal.args if isinstance(term, Variable)}
        self.params: Tuple[str, ...] = tuple(
            p.name if isinstance(p, Variable) else str(p) for p in params
        )
        unknown = [p for p in self.params if p not in variables]
        if unknown:
            raise ValueError(
                f"parameter(s) {unknown} do not occur as variables in {literal}"
            )

    def bind(self, *values: object) -> Literal:
        """The query literal with parameter values substituted."""
        if len(values) != len(self.params):
            raise ValueError(
                f"prepared query takes {len(self.params)} parameter(s), "
                f"got {len(values)}"
            )
        by_name = dict(zip(self.params, values))
        args = [
            Constant(by_name[term.name])
            if isinstance(term, Variable) and term.name in by_name
            else term
            for term in self.literal.args
        ]
        return Literal(self.literal.predicate, args)

    def __call__(self, *values: object, counters: Optional[Counters] = None) -> EngineResult:
        return self.session.query(self.bind(*values), engine=self.engine, counters=counters)


class QuerySession:
    """Serve repeated queries over a program and a growing database.

    Parameters
    ----------
    program:
        The (fixed) Datalog program.
    database:
        The extensional database the session owns and grows.  Created empty
        when omitted.  Grow it through :meth:`insert_facts` -- inserting into
        it directly still works (the next query detects the version bump and
        resumes), but bypasses the immediate refresh.
    engine:
        Registry name pinning every query to one strategy, or ``None``
        (default) to auto-select per query via :func:`select_engine`.

    Construction runs the program-level static analysis
    (:func:`repro.datalog.diagnostics.check_program`): error-severity
    findings raise immediately (e.g.
    :class:`~repro.datalog.errors.StratificationError`, with its structured
    diagnostic) instead of surfacing mid-fixpoint on the first query.
    Queries evaluate under the calling thread's settings
    (:func:`repro.config.current_config`).

    Attributes
    ----------
    diagnostics:
        Warning/hint :class:`~repro.datalog.diagnostics.Diagnostic` records
        collected at construction.
    """

    def __init__(
        self,
        program: Program,
        database: Optional[Database] = None,
        engine: Optional[str] = None,
    ):
        from ..datalog.diagnostics import check_program

        self.program = program
        self.database = database if database is not None else Database()
        self.engine = engine
        self.fingerprint = program_fingerprint(program)
        self.analysis = analyze(program)
        self.diagnostics: List["Diagnostic"] = check_program(
            program, database=self.database
        )
        self._engines: Dict[str, Engine] = {}
        #: strategy -> its Materialization (at most one per strategy)
        self._materializations: Dict[str, Materialization] = {}
        self.stats: Dict[str, int] = {
            "queries": 0,
            "materializations": 0,
            "resumes": 0,
        }

    # -- querying -----------------------------------------------------------

    def query(
        self,
        query: QueryLike,
        engine: Optional[str] = None,
        counters: Optional[Counters] = None,
    ) -> EngineResult:
        """Answer ``query`` from the (auto-selected) cached materialization."""
        literal = parse_query(query) if isinstance(query, str) else query
        strategy = engine or self.engine or self.strategy_for(literal)
        materialization = self.materialization(strategy)
        self.stats["queries"] += 1
        return materialization.answer(literal, counters=counters)

    def prepare(
        self,
        query: QueryLike,
        params: Sequence[str] = (),
        engine: Optional[str] = None,
    ) -> PreparedQuery:
        """A reusable parameterized query; ``params`` name template variables.

        When an engine is pinned (here or session-wide), the pin is checked
        immediately against a probe binding (parameters stand in as
        constants): an unknown engine name or an inapplicable strategy
        raises :class:`~repro.datalog.errors.NotApplicableError` at prepare
        time instead of on the first call.
        """
        literal = parse_query(query) if isinstance(query, str) else query
        prepared = PreparedQuery(self, literal, params, engine=engine)
        strategy = engine or self.engine
        if strategy is not None:
            from ..datalog.errors import NotApplicableError

            probe = prepared.bind(*(["__probe__"] * len(prepared.params)))
            if not self._engine_for(strategy).applicable(self.program, probe):
                raise NotApplicableError(
                    f"engine {strategy!r} is not applicable to prepared "
                    f"query {literal} (checked with a probe binding); "
                    "pin a different engine or let the session auto-select"
                )
        return prepared

    def strategy_for(self, query: QueryLike) -> str:
        """The strategy :meth:`query` would auto-select for ``query``."""
        literal = parse_query(query) if isinstance(query, str) else query
        return select_engine(
            self.program, literal, self.analysis, database=self.database
        )

    def explain(
        self,
        query: QueryLike,
        engine: Optional[str] = None,
        counters: Optional[Counters] = None,
    ) -> str:
        """A text report of how the session would serve ``query``.

        Shows the (auto-selected or pinned) strategy, the active plan and
        execution settings, and -- for every IDB rule -- the compiled join
        plan via :meth:`~repro.datalog.plans.JoinPlan.explain`: chosen scan
        order, per-step access paths, the cost model's estimates under
        ``configured(plan="cost")``, and observed per-node cardinalities
        when the ``counters`` of a previous run are passed in.  The
        abstract interpretation's ``DL7xx`` findings for the explained
        program over the session's database follow
        (:func:`~repro.datalog.diagnostics.abstract_diagnostics`), then any
        planner events recorded since the last explain (the adaptive
        re-planner's ``DL601`` estimate-miss hints), which are drained.
        Under ``configured(optimize=True)`` the report of the query-directed
        program optimizer (:mod:`repro.datalog.transform`) is included and
        the rule plans and findings shown are those of the optimized
        program.
        """
        from ..datalog.diagnostics import abstract_diagnostics

        literal = parse_query(query) if isinstance(query, str) else query
        strategy = engine or self.engine or self.strategy_for(literal)
        config = current_config()
        lines = [
            f"query {literal}",
            f"strategy: {strategy}",
            f"plan mode: {config.plan}",
            f"execution mode: {config.execution}",
        ]
        program = self.program
        if config.optimize:
            rewritten = optimize(
                program, queries=(literal.predicate,), database=self.database
            )
            if rewritten.report.changed:
                program = rewritten.program
                lines.extend(rewritten.report.format())
        rules = [
            rule
            for rule in program.idb_rules()
            if rule.body and not rule.is_aggregate
        ]
        if rules:
            lines.append("rule plans:")
            for rule in rules:
                plan = rule_plan(rule, database=self.database)
                for line in plan.explain(counters).splitlines():
                    lines.append(f"  {line}")
        findings = abstract_diagnostics(program, self.database)
        if findings:
            lines.append("analysis findings:")
            for finding in findings:
                lines.append(f"  {finding.format()}")
        events = drain_planner_events()
        if events:
            lines.append("planner events:")
            for event in events:
                lines.append(f"  {event.format()}")
        return "\n".join(lines)

    # -- materialization cache ---------------------------------------------

    def materialization(self, strategy: str) -> Materialization:
        """The strategy's materialization at the current database version.

        Builds it on first use; if the database version moved past a cached
        materialization (direct inserts bypassing :meth:`insert_facts`), the
        cached one is resumed with exactly the missed delta instead of being
        rebuilt.
        """
        materialization = self._materializations.get(strategy)
        if materialization is None:
            engine = self._engine_for(strategy)
            materialization = engine.materialize(self.program, self.database)
            self._materializations[strategy] = materialization
            self.stats["materializations"] += 1
        elif materialization.basis_version != self.database.version:
            self._resume(materialization, strategy)
        return materialization

    def _resume(self, materialization: Materialization, strategy: str) -> None:
        delta = self.database.delta_since(materialization.basis_version)
        self._engine_for(strategy).resume(
            materialization, delta, version=self.database.version
        )
        self.stats["resumes"] += 1

    def _engine_for(self, strategy: str) -> Engine:
        engine = self._engines.get(strategy)
        if engine is None:
            engine = get_engine(strategy)
            self._engines[strategy] = engine
        return engine

    # -- growth -------------------------------------------------------------

    def insert_facts(self, predicate: str, rows: Iterable[Iterable[object]]) -> int:
        """Insert facts and incrementally refresh every cached materialization.

        Returns the number of genuinely new rows.  Duplicates neither advance
        the database version nor trigger any resume work.  Rows for a
        derived predicate raise :class:`ValueError` and change nothing, here
        and in every other write method.
        """
        self._check_base((predicate,))
        added = self.database.add_facts(predicate, rows)
        if added:
            self._refresh()
        return added

    def insert(self, facts: Dict[str, Iterable[Iterable[object]]]) -> int:
        """Insert a multi-predicate batch, refreshing caches once at the end."""
        self._check_base(facts)
        added = 0
        for predicate, rows in facts.items():
            added += self.database.add_facts(predicate, rows)
        if added:
            self._refresh()
        return added

    def retract_facts(
        self, predicate: str, rows: Iterable[Iterable[object]]
    ) -> int:
        """Delete facts and incrementally maintain every cached materialization.

        Returns the number of rows actually present.  Absent rows neither
        advance the database version nor trigger any maintenance work.  The
        cached model materializations are repaired by delete-rederive (DRed)
        -- never rebuilt from scratch -- and the demand caches invalidate
        only the entries whose visible predicates the deletion touches.
        """
        self._check_base((predicate,))
        removed = self.database.remove_facts(predicate, rows)
        if removed:
            self._refresh()
        return removed

    def retract(self, facts: Dict[str, Iterable[Iterable[object]]]) -> int:
        """Delete a multi-predicate batch, refreshing caches once at the end."""
        self._check_base(facts)
        removed = 0
        for predicate, rows in facts.items():
            removed += self.database.remove_facts(predicate, rows)
        if removed:
            self._refresh()
        return removed

    def update(
        self,
        inserts: Optional[Dict[str, Iterable[Iterable[object]]]] = None,
        deletes: Optional[Dict[str, Iterable[Iterable[object]]]] = None,
    ) -> int:
        """Apply a mixed batch -- deletions first, then insertions -- with one
        refresh at the end; returns the number of effective mutations."""
        self._check_base([*(deletes or {}), *(inserts or {})])
        changed = 0
        for predicate, rows in (deletes or {}).items():
            changed += self.database.remove_facts(predicate, rows)
        for predicate, rows in (inserts or {}).items():
            changed += self.database.add_facts(predicate, rows)
        if changed:
            self._refresh()
        return changed

    def _check_base(self, predicates: Iterable[str]) -> None:
        """Reject a write to a derived predicate before it reaches the
        database: no cached materialization could resume past it."""
        derived = self.program.derived_predicates
        for predicate in predicates:
            if predicate in derived:
                raise ValueError(
                    f"cannot write facts for derived predicate {predicate!r}"
                )

    def _refresh(self) -> None:
        for strategy, materialization in self._materializations.items():
            self._resume(materialization, strategy)

    def __repr__(self) -> str:
        return (
            f"QuerySession(program={self.fingerprint}, "
            f"version={self.database.version}, "
            f"materializations={len(self._materializations)})"
        )
