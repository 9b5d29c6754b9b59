"""The self-feeding contract of ``JoinPlan.head_batch``.

A plan is self-feeding when a later scan step reads the rule's own head
relation from the main database (round 0 of ``tc(X, Z) :- e(X, Y),
tc(Y, Z)``).  The row loop's probes can then see rows the same firing
inserted moments earlier, and the work counters charge exactly those
probes.  Such a plan therefore batches only when the caller promises not
to write the database at all (``frozen=True``, the DRed overdelete loop);
every other firing is refused, counted as one fallback, and charges
nothing, so the caller's row loop is the only thing that charges.
"""

from repro.datalog.database import Database, Delta
from repro.datalog.parser import parse_program
from repro.datalog.plans import rule_plan
from repro.datalog.semantics import least_model
from repro.engines.runtime import evaluate_stratified, resume_stratified
from repro.instrumentation import Counters
from repro.workloads import binary_tree


def _tc_plan():
    (rule,) = parse_program("tc(X, Z) :- e(X, Y), tc(Y, Z).").rules
    return rule_plan(rule)


def _tc_database():
    return Database.from_dict({"e": [(1, 2)], "tc": [(2, 3)]}, counters=Counters())


class TestHeadBatch:
    def test_non_frozen_firing_is_refused_and_charges_nothing(self):
        database = _tc_database()
        assert _tc_plan().head_batch(database) is None
        assert database.counters.batch.fallbacks == 1
        assert database.counters.batch.batches == 0
        assert database.counters.as_dict() == Counters().as_dict()

    def test_frozen_firing_batches_and_charges_like_the_row_loop(self):
        plan = _tc_plan()
        batched = _tc_database()
        assert plan.head_batch(batched, frozen=True) == [(1, 3)]
        assert batched.counters.batch.batches == 1
        assert batched.counters.batch.fallbacks == 0
        looped = _tc_database()
        assert list(plan.heads(looped)) == [(1, 3)]
        assert looped.counters.fact_retrievals == 2
        assert looped.counters.distinct_facts == 2
        assert batched.counters.as_dict() == looped.counters.as_dict()


def _retract_edge(execution_cell, cell):
    program, database, _ = binary_tree(4)
    model = database.copy()
    model.reset_instrumentation(Counters())
    evaluate_stratified(program, model)
    counters = Counters()
    model.reset_instrumentation(counters)
    with execution_cell(cell):
        resume_stratified(program, model, Delta(deletes={"edge": [(1, 2)]}))
    reduced = database.copy()
    reduced.remove_fact("edge", (1, 2))
    assert model.rows("tc") == least_model(program, reduced).rows("tc")
    return counters


class TestDRedOverdelete:
    def test_overdelete_batches_its_self_feeding_variant(self, execution_cell):
        counters = _retract_edge(execution_cell, "columnar")
        assert "tc[1]:tc" in counters.batch.nodes
        row_loop = _retract_edge(execution_cell, "row-fallback")
        assert row_loop.batch.batches == 0
        assert counters.as_dict() == row_loop.as_dict()
