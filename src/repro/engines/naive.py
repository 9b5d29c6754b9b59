"""Naive bottom-up evaluation [2, 6, 18].

Repeatedly fire every intensional rule over the whole current database until
no new tuple appears, then select the answer from the derived relation.  This
is the completely general method the paper uses as the semantic baseline; its
weaknesses are exactly the ones the introduction lists: every round refires
rules on data already processed (duplication of work) and the whole derived
relation is computed regardless of the query bindings (a large set of
potentially relevant facts).

The loop itself lives in the shared stratified runtime
(:mod:`repro.engines.runtime`): stratified programs run the Jacobi iteration
once per stratum (negated and aggregated inputs are complete by the time a
stratum starts), and a positive program is the 1-stratum special case whose
rounds and counters are bit-identical to the historical global loop.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.analysis import analyze
from ..datalog.database import Database
from ..datalog.literals import Literal
from ..datalog.rules import Program
from ..instrumentation import Counters
from .base import Engine, EngineResult, Materialization, ModelMaterialization, register
from .runtime import evaluate_stratified


def evaluate_naive(program: Program, database: Database, counters: Counters) -> int:
    """Run the naive fixpoint in place; returns the number of rounds.

    The rules are compiled to join plans once; the refiring of every rule on
    every round -- the duplication the paper measures -- stays.  The rounds
    are the shared runtime's Jacobi stratum driver
    (:func:`repro.engines.runtime.evaluate_stratified` with ``naive=True``).
    """
    return evaluate_stratified(program, database, counters, naive=True)


@register
class NaiveEngine(Engine):
    """Naive (Jacobi-style) bottom-up fixpoint evaluation."""

    name = "naive"

    def _run(
        self,
        program: Program,
        query: Literal,
        database: Database,
        counters: Counters,
    ) -> EngineResult:
        iterations = evaluate_naive(program, database, counters)
        return EngineResult(
            answers=database.answers(query),
            engine=self.name,
            counters=counters,
            iterations=iterations,
            details={"derived_size": database.count(query.predicate)},
        )

    def materialize(
        self,
        program: Program,
        database: Optional[Database] = None,
        counters: Optional[Counters] = None,
    ) -> Materialization:
        """Compute the full least model naively; answers are lookups.

        The resulting model is identical to the seminaive engine's, so the
        shared seminaive continuation is also the resume path here -- naive
        evaluation has no delta notion of its own, and re-running the whole
        fixpoint is precisely the recomputation resume exists to avoid.
        """
        counters = counters if counters is not None else Counters()
        combined, basis_version = self._materialization_base(program, database, counters)
        evaluate_naive(program, combined, counters)
        return ModelMaterialization(
            self, program, combined, basis_version, counters, analysis=analyze(program)
        )
