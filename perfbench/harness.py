"""Run one workload in this process: set up, time the op loop, trace, verify.

A run is one closed-loop client on one thread.  The op sequence is fixed by
the seed and the op count, so two commits execute identical work; each op
is timed with ``perf_counter_ns`` around its one public call, and every
fingerprint, digest and counter is taken outside the timed region.
"""

from __future__ import annotations

import gc
import resource
import statistics
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Set

from repro.datalog.parser import parse_literal
from repro.instrumentation import Counters

from .hostspeed import HostClock
from .metrics import WORK_COUNTERS
from .reference import ReferenceStore, answer_digest
from .summary import hd_quantile
from .tracer import SPAN_NAMES, Tracer
from .workloads import Op, Workload

#: An untraced run sets up at least this many times and for at least this
#: many seconds; setup_s is the median.  Short set-ups repeat more often, so
#: that one burst of machine noise cannot cover half of them.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
#: Host-speed probes right before and right after each set-up.
SETUP_PROBES = 3


def library_config() -> Dict[str, object]:
    """The library's process-wide defaults this run measured."""
    from repro.datalog.diagnostics import eager_validation_enabled
    from repro.datalog.plans import get_execution_mode, get_plan_mode
    from repro.datalog.transform import get_program_opt
    from repro.parallel import parallelism
    from repro.storage.runtime import get_storage_mode

    return {
        "execution_mode": get_execution_mode(),
        "plan_mode": get_plan_mode(),
        "program_opt": get_program_opt(),
        "storage_mode": get_storage_mode(),
        "parallelism": parallelism(),
        "eager_validation": eager_validation_enabled(),
    }


def _fresh_build(workload: Workload, clock: HostClock):
    """Drop the library's process-wide caches, then set the workload up.

    Returns the state and the set-up time in seconds at nominal host speed.
    """
    from repro.datalog.plans import clear_plan_cache
    from repro.session import clear_program_facts_cache

    clear_plan_cache()
    clear_program_facts_cache()
    gc.collect()
    for _ in range(SETUP_PROBES):
        clock.probe()
    start = perf_counter_ns()
    state = workload.build()
    end = perf_counter_ns()
    for _ in range(SETUP_PROBES):
        clock.probe()
    return state, (end - start) * clock.scale(start, end, SETUP_PROBES) / 1e9


class Pass:
    """Everything one pass over the op sequence observed.

    ``elapsed_ns`` holds each op's time at nominal host speed (see
    :mod:`perfbench.hostspeed`), ``None`` for an op that raised.
    """

    def __init__(self, count: int):
        self.elapsed_ns: List[Optional[float]] = [None] * count
        self.fingerprints: List[object] = [None] * count
        self.digests: Dict[int, str] = {}
        self.raised: Dict[int, str] = {}
        self.work = Counters()
        self.demand_answers = 0
        self.demand_hits = 0
        self.host_speed: Dict[str, float] = {}

    @property
    def busy_ns(self) -> float:
        return sum(ns for ns in self.elapsed_ns if ns is not None)


def execute(workload: Workload, state, ops: Sequence[Op], digest_at: Set[int]) -> Pass:
    """Issue every op in order, timing only its public call."""
    observed = Pass(len(ops))
    clock = HostClock()
    clock.probe()
    intervals: Dict[int, tuple] = {}
    for index, op in enumerate(ops):
        call, counters = workload.call(state, op)
        start = perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # an op that raises counts as failed
            observed.raised[index] = f"{type(exc).__name__}: {exc}"
            clock.tick()
            continue
        intervals[index] = (start, perf_counter_ns())
        clock.tick()
        if op.kind != "query":
            observed.fingerprints[index] = result
            continue
        answers = result.answers
        observed.fingerprints[index] = (len(answers), hash(frozenset(answers)))
        if index in digest_at:
            observed.digests[index] = answer_digest(answers)
        observed.work.absorb(counters)
        if op.form and not result.details.get("materialized"):
            observed.demand_answers += 1
            observed.demand_hits += bool(result.details.get("cached"))
    clock.probe()
    for index, (start, end) in intervals.items():
        observed.elapsed_ns[index] = (end - start) * clock.scale(start, end)
    observed.host_speed = clock.speed()
    return observed


def verify(
    workload: Workload, ops: Sequence[Op], observed: Pass, store: ReferenceStore
) -> Set[int]:
    """Indices of ops whose answers are wrong or that raised.

    Checkpoint ops are compared by digest with the reference entry of their
    EDB state, which is rebuilt by replaying the mutation sequence on plain
    databases.  Every other query in a checkpointed ``(source, state,
    query)`` group must carry the fingerprint of a verified checkpoint.
    """
    failed = set(observed.raised)
    checkpoints = sorted(observed.digests)
    wanted: Dict[tuple, Set[str]] = defaultdict(set)
    for index in checkpoints:
        wanted[(ops[index].source, ops[index].state)].add(ops[index].query)
    inputs = workload.base_inputs()
    references: Dict[tuple, Dict[str, dict]] = {}
    pending = set(checkpoints)
    for index, op in enumerate(ops):
        if not pending:
            break
        program, database = inputs[op.source]
        if op.kind == "insert":
            for predicate, row in op.rows:
                database.add_fact(predicate, row)
        elif op.kind == "retract":
            for predicate, row in op.rows:
                database.remove_fact(predicate, row)
        elif index in pending:
            pending.discard(index)
            key = (op.source, op.state)
            if key not in references:
                queries = [parse_literal(text) for text in sorted(wanted[key])]
                references[key] = store.entries(program, database, queries)
    good: Dict[tuple, object] = {}
    bad: Dict[tuple, Set[object]] = defaultdict(set)
    for index in checkpoints:
        op = ops[index]
        if observed.digests[index] == references[(op.source, op.state)][op.query]["digest"]:
            good[op.group] = observed.fingerprints[index]
        else:
            bad[op.group].add(observed.fingerprints[index])
            failed.add(index)
    for index, op in enumerate(ops):
        if op.kind != "query" or index in observed.digests or index in observed.raised:
            continue
        fingerprint = observed.fingerprints[index]
        if op.group in good and fingerprint != good[op.group]:
            failed.add(index)
        elif fingerprint in bad.get(op.group, ()):
            failed.add(index)
    return failed


def _by_kind(ops: Sequence[Op], elapsed_ns: Sequence[Optional[int]]) -> Dict[str, List[int]]:
    by_kind: Dict[str, List[int]] = defaultdict(list)
    for op, ns in zip(ops, elapsed_ns):
        if ns is not None:
            by_kind[op.kind].append(ns)
            by_kind["all"].append(ns)
    return by_kind


def latency_summary(ops: Sequence[Op], observed: Pass) -> Dict[str, dict]:
    """Per op kind over the whole run: sample count, p50 and p90 in ms."""
    return {
        kind: {
            "n": len(values),
            "p50_ms": hd_quantile(values, 0.5) / 1e6,
            "p90_ms": hd_quantile(values, 0.9) / 1e6,
        }
        for kind, values in _by_kind(ops, observed.elapsed_ns).items()
    }


def end_to_end(setup_s: List[float], latency: Dict[str, dict], observed: Pass) -> Dict[str, float]:
    """The end-to-end metrics of an untraced pass, over all of its ops."""
    return {
        "setup_s": statistics.median(setup_s),
        "query_p50_ms": latency["query"]["p50_ms"],
        "query_p90_ms": latency["query"]["p90_ms"],
        "ops_per_s": latency["all"]["n"] / (observed.busy_ns / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    tracer: Tracer, untraced: Pass, traced: Pass, session_stats: Dict[str, int]
) -> Dict[str, float]:
    busy = traced.busy_ns
    metrics: Dict[str, float] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = tracer.calls(span)
        metrics[f"{span}.self_pct"] = 100.0 * tracer.self_ns(span) / busy
    lookups = tracer.calls("plans.lookup")
    compiles = tracer.calls("plans.compile_plan")
    metrics["plans.cache_hit_rate"] = 1.0 - compiles / lookups if lookups else 0.0
    answers = untraced.demand_answers
    metrics["session.demand_hit_rate"] = untraced.demand_hits / answers if answers else 0.0
    metrics["session.materializations"] = session_stats["materializations"]
    metrics["session.resumes"] = session_stats["resumes"]
    for name in WORK_COUNTERS:
        metrics[f"engines.work.{name}"] = getattr(untraced.work, name)
    batch = untraced.work.batch
    metrics["plans.batch.batches"] = batch.batches
    metrics["plans.batch.rows_in"] = batch.rows_in
    metrics["plans.batch.fallbacks"] = batch.fallbacks
    metrics["trace.overhead_pct"] = 100.0 * (busy - untraced.busy_ns) / untraced.busy_ns
    root_ns, root_child_ns = tracer.roots
    metrics["trace.coverage"] = 100.0 * root_child_ns / root_ns if root_ns else 0.0
    return metrics


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    store: Optional[ReferenceStore] = None,
) -> dict:
    """One benchmark run of ``workload``; returns its record."""
    store = store if store is not None else ReferenceStore()
    ops = workload.sequence(seed, workload.op_count(seconds, quick))
    digest_at = set(workload.checkpoints(ops, seed))
    setup_s: List[float] = []
    state = None
    clock = HostClock()
    repeats, seconds_wanted = (1, 0.0) if quick or trace else (SETUP_REPEATS, SETUP_SECONDS)
    while len(setup_s) < repeats or sum(setup_s) < seconds_wanted:
        state = None
        state, elapsed = _fresh_build(workload, clock)
        setup_s.append(elapsed)
    gc.collect()
    started = perf_counter_ns()
    untraced = execute(workload, state, ops, digest_at)
    phases = {"loop": (perf_counter_ns() - started) / 1e9}
    latency = latency_summary(ops, untraced)
    if trace:
        session_stats = workload.session_stats(state)
        state = None
        state, _ = _fresh_build(workload, clock)
        gc.collect()
        started = perf_counter_ns()
        with Tracer() as tracer:
            traced = execute(workload, state, ops, set())
        phases["traced_loop"] = (perf_counter_ns() - started) / 1e9
        metrics = per_layer(tracer, untraced, traced, session_stats)
    else:
        metrics = end_to_end(setup_s, latency, untraced)
    state = None
    started = perf_counter_ns()
    failed = verify(workload, ops, untraced, store)
    phases["verify"] = (perf_counter_ns() - started) / 1e9
    attempted = len(ops)
    if trace:
        # The tracer must be transparent: identical answers op by op.
        attempted += len(ops)
        failed |= {
            len(ops) + index
            for index in range(len(ops))
            if traced.fingerprints[index] != untraced.fingerprints[index]
            or index in traced.raised
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
        "ops": latency,
        "setup_runs_s": setup_s,
        "phase_s": phases,
        "host_speed": untraced.host_speed,
        "checked": len(untraced.digests),
        "raised": sorted(set(untraced.raised.values()))[:5],
        "reference_computed": store.computed,
        "reference_keys": sorted(store.used),
        "config": library_config(),
    }
