"""The declared metrics; ``BENCHMARK.json`` lists exactly these."""

from __future__ import annotations

from .tracer import SPAN_NAMES

#: (name, unit, better, bound): what a user of the library waits for, per
#: workload.  ``bound`` is the share by which the median may worsen before a
#: change counts as a regression.  Where the run-to-run spread is wider than
#: the bound, a comparison reports the metric as unresolved.
END_TO_END = (
    ("setup_s", "s", "lower", 0.10),
    ("query_p50_ms", "ms", "lower", 0.10),
    ("query_p90_ms", "ms", "lower", 0.10),
    ("ops_per_s", "ops/s", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

WORK_COUNTERS = (
    "fact_retrievals",
    "distinct_facts",
    "rule_firings",
    "derived_tuples",
    "nodes_generated",
    "iterations",
)

#: (name, unit, better): single-layer numbers from the traced run.
PER_LAYER = tuple(
    (f"{span}.{suffix}", unit, "lower")
    for span in SPAN_NAMES
    for suffix, unit in (("calls", "count"), ("self_pct", "%"))
) + (
    ("plans.cache_hit_rate", "fraction", "higher"),
    ("session.demand_hit_rate", "fraction", "higher"),
    ("session.materializations", "count", "lower"),
    ("session.resumes", "count", "lower"),
    *((f"engines.work.{name}", "count", "lower") for name in WORK_COUNTERS),
    ("plans.batch.batches", "count", "higher"),
    ("plans.batch.rows_in", "count", "higher"),
    ("plans.batch.fallbacks", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "%", "higher"),
)


def specs(trace: bool):
    """The declared metrics of an untraced (``trace=False``) or traced run."""
    if trace:
        return [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    return [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END]
