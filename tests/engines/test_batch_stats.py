"""Per-plan-node batch telemetry exposed through ``EngineResult.batch_stats``."""

from repro.config import configured
from repro.engines import run_engine
from repro.instrumentation import Counters
from repro.workloads import binary_tree, chain


def _run(workload):
    program, database, query = workload
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    result = run_engine("seminaive", program, query, fresh, counters)
    return result, counters


class TestBatchStats:
    def test_default_run_reports_batches_and_per_node_rows(self):
        result, _ = _run(chain(12))
        stats = result.batch_stats
        assert stats.batches > 0
        assert stats.rows_in > 0
        assert stats.rows_out > 0
        # Node entries are (batches, rows_in, rows_out) per plan scan step.
        assert stats.nodes
        for key, (batches, rows_in, rows_out) in stats.nodes.items():
            assert batches > 0
            assert rows_in >= rows_out >= 0
            assert "tc[" in key

    def test_interpreted_mode_reports_no_batches(self):
        with configured(execution="interpreted"):
            result, _ = _run(chain(12))
        stats = result.batch_stats
        assert stats.batches == 0
        assert stats.rows_in == 0
        assert stats.fallbacks == 0
        assert not stats.nodes

    def test_row_fallback_cell_runs_no_batches(self, execution_cell):
        # The differential matrices' row-fallback cell must really take the
        # row path, or it would silently test the batch kernel twice.
        with execution_cell("row-fallback"):
            result, counters = _run(chain(12))
        assert result.batch_stats.batches == 0
        _, columnar_counters = _run(chain(12))
        assert counters.as_dict() == columnar_counters.as_dict()

    def test_self_feeding_round_zero_counts_a_fallback(self):
        # The recursive self-join of round 0 runs the row loop (its
        # mid-firing probes are observable) and is recorded as a fallback
        # rather than silently absorbed.
        result, _ = _run(binary_tree(4))
        assert result.batch_stats.fallbacks > 0

    def test_batch_stats_stay_out_of_the_work_counter_model(self):
        _, columnar_counters = _run(chain(12))
        with configured(execution="interpreted"):
            _, interpreted_counters = _run(chain(12))
        assert columnar_counters.as_dict() == interpreted_counters.as_dict()
        assert "batch" not in columnar_counters.as_dict()
        assert "batches" not in columnar_counters.as_dict()
