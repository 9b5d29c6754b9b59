"""Seminaive bottom-up evaluation [2].

The standard differential fixpoint: at every round each recursive rule is
evaluated with one occurrence of a recursive body predicate restricted to the
tuples derived in the previous round (the *delta*), so a rule instantiation
is never recomputed from the same new tuple twice.  Non-recursive predicates
are still read from the full database.  This removes most of the duplication
of naive evaluation but, like naive evaluation, it computes the entire
derived relation: bindings in the query are not exploited, which is why the
bottom-up methods are usually combined with a rewriting such as magic sets
(:mod:`repro.engines.magic`).

The fixpoint machinery itself lives in the shared stratified runtime
(:mod:`repro.engines.runtime`): this module contributes only the engine
wrapper and the historical entry points.  Stratified programs (negation,
aggregation) evaluate stratum by stratum; positive programs are the
1-stratum special case and run bit-identically to the historical
single-fixpoint loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..datalog.analysis import ProgramAnalysis, analyze
from ..datalog.database import Database, Row
from ..datalog.errors import EvaluationError
from ..datalog.literals import Literal
from ..datalog.rules import Program
from ..instrumentation import Counters
from .base import Engine, EngineResult, Materialization, ModelMaterialization, register
from .runtime import evaluate_stratified, resume_stratified


@register
class SeminaiveEngine(Engine):
    """Seminaive (differential) bottom-up fixpoint evaluation."""

    name = "seminaive"

    def _run(
        self,
        program: Program,
        query: Literal,
        database: Database,
        counters: Counters,
    ) -> EngineResult:
        derived = evaluate_seminaive(program, database, counters)
        return EngineResult(
            answers=derived.answers(query),
            engine=self.name,
            counters=counters,
            iterations=counters.iterations,
            details={"derived_size": derived.count(query.predicate)},
        )

    def materialize(
        self,
        program: Program,
        database: Optional[Database] = None,
        counters: Optional[Counters] = None,
    ) -> Materialization:
        """Compute the full (stratified) model once; answers are lookups."""
        counters = counters if counters is not None else Counters()
        combined, basis_version = self._materialization_base(program, database, counters)
        analysis = analyze(program)
        evaluate_stratified(program, combined, counters, analysis)
        return ModelMaterialization(
            self, program, combined, basis_version, counters, analysis=analysis
        )


def evaluate_seminaive(
    program: Program,
    database: Database,
    counters: Optional[Counters] = None,
    analysis: Optional[ProgramAnalysis] = None,
) -> Database:
    """Compute all derived relations seminaively; returns the full database.

    The database passed in is extended in place with the derived tuples (it
    already shares the counters), and also returned for convenience.  The
    derived predicates are processed stratum by stratum and, within each
    stratum, one strongly connected component at a time, bottom-up -- the
    stratified generalisation of the usual dependency ordering, driven by
    the shared runtime (:func:`repro.engines.runtime.evaluate_stratified`).
    """
    counters = counters if counters is not None else database.counters
    evaluate_stratified(program, database, counters, analysis)
    return database


def resume_seminaive(
    program: Program,
    database: Database,
    edb_delta: Dict[str, Iterable[Row]],
    counters: Optional[Counters] = None,
    analysis: Optional[ProgramAnalysis] = None,
) -> int:
    """Continue a materialized fixpoint of a *positive* program in place.

    Seminaive evaluation is already a delta computation, so the continuation
    is the same machinery seeded with the EDB delta instead of round-0
    firings; see :func:`repro.engines.runtime.resume_stratified`, which this
    wraps.  Returns the number of newly derived tuples.  Stratified programs
    cannot be resumed in place (insertions are non-monotone through negation
    and aggregation and the runtime swaps in a rebuilt database), so they are
    rejected here *before* anything is mutated; callers that may see them --
    the model materializations -- use
    :func:`~repro.engines.runtime.resume_stratified` directly.
    """
    if not program.is_positive:
        raise EvaluationError(
            "stratified resume replaces the database; call "
            "repro.engines.runtime.resume_stratified for non-positive programs"
        )
    _, new_tuples = resume_stratified(program, database, edb_delta, counters, analysis)
    return new_tuples
