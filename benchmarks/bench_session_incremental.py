"""Session-layer before/after benchmark: amortized serving vs per-query recompute.

Two serving scenarios over the Fig-7 and same-generation families, each
measured twice and written to ``BENCH_session.json``:

* **repeated-query** -- the same queries arrive over and over against an
  unchanged database.  Baseline: every query re-runs the engine from scratch
  (the one-shot ``run_engine`` path).  Session: a :class:`repro.session
  .QuerySession` answers repeats from its cached materialization.
* **fact-streaming** -- small fact batches arrive interleaved with queries.
  Baseline: every query after every batch re-runs the engine from scratch
  over the grown database.  Session: ``insert_facts`` resumes the cached
  fixpoint with exactly the delta and the query answers from it.

Reported speedups are *amortized wall-clock*: total time for the whole
scenario, baseline / session.

Two baseline flavours:

* ``--baseline-path <src>`` -- run the baseline passes in a subprocess with
  ``PYTHONPATH`` pointing at a pre-session checkout (the honest historical
  baseline: its ``run_engine`` *is* that tree's only way to serve a query);
* no flag -- run the baseline in a subprocess against the current tree.  The
  one-shot ``run_engine`` path is unchanged by the session layer (the pinned
  counter suite asserts so), so this measures the same per-query full
  recomputation without needing a second checkout.

Usage::

    PYTHONPATH=src python benchmarks/bench_session_incremental.py \
        [--output BENCH_session.json] [--baseline-path /path/to/old/src] \
        [--rounds 3] [--strict]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from helpers import alternating_passes, check_answer_parity, repo_src, write_report

REPEAT_QUERY_THRESHOLD = 5.0
STREAMING_THRESHOLD = 2.0


# ---------------------------------------------------------------------------
# Scenario definitions (shared by the baseline and session passes)
# ---------------------------------------------------------------------------

def _fig7a_growth(n, batches, per_batch):
    """New fan legs for sample (a): up(a, b_k), flat(b_k, c) beyond n."""
    growth = []
    k = n + 1
    for _ in range(batches):
        batch = []
        for _ in range(per_batch):
            batch.append(("up", ("a", f"b{k}")))
            batch.append(("flat", (f"b{k}", "c")))
            k += 1
        growth.append(batch)
    return growth


def _fig7c_growth(n, batches, per_batch):
    """New chain levels for sample (c): extend up/flat/down past level n."""
    growth = []
    k = n
    for _ in range(batches):
        batch = []
        for _ in range(per_batch):
            batch.append(("up", (f"a{k}", f"a{k + 1}")))
            batch.append(("flat", (f"a{k + 1}", f"b{k + 1}")))
            batch.append(("down", (f"b{k + 1}", f"b{k}")))
            k += 1
        growth.append(batch)
    return growth


def scenario_matrix():
    """name -> spec.  Sizes keep one full CI run in tens of seconds."""
    from repro.workloads import random_genealogy, sample_a, sample_c

    return {
        # The same bound query repeated: the demand cache answers repeats.
        "repeated-query/fig7a-n150/graph": {
            "kind": "repeated",
            "workload": lambda: sample_a(150),
            "engine": "graph",
            "repeats": 40,
        },
        "repeated-query/fig7c-n80/graph": {
            "kind": "repeated",
            "workload": lambda: sample_c(80),
            "engine": "graph",
            "repeats": 40,
        },
        # The full derived relation repeatedly: the model materialization.
        "repeated-query/genealogy-240/seminaive": {
            "kind": "repeated",
            "workload": lambda: random_genealogy(240, 6, seed=3),
            "engine": "seminaive",
            "repeats": 25,
        },
        # Facts stream in between queries: seminaive resume vs full refires.
        "fact-streaming/fig7a-n120/seminaive": {
            "kind": "streaming",
            "workload": lambda: sample_a(120),
            "engine": "seminaive",
            "growth": lambda: _fig7a_growth(120, batches=15, per_batch=2),
        },
        "fact-streaming/fig7c-n90/seminaive": {
            "kind": "streaming",
            "workload": lambda: sample_c(90),
            "engine": "seminaive",
            "growth": lambda: _fig7c_growth(90, batches=15, per_batch=1),
        },
        # Magic's cached rewritten-program fixpoint is seminaively resumable.
        "fact-streaming/fig7c-n90/magic": {
            "kind": "streaming",
            "workload": lambda: sample_c(90),
            "engine": "magic",
            "growth": lambda: _fig7c_growth(90, batches=15, per_batch=1),
        },
    }


def _group(batch):
    delta = {}
    for predicate, row in batch:
        delta.setdefault(predicate, []).append(row)
    return delta


# ---------------------------------------------------------------------------
# Measurement passes
# ---------------------------------------------------------------------------

def measure_baseline(spec):
    """Per-query full recomputation via the one-shot engine path."""
    from repro.engines import run_engine

    program, database, query = spec["workload"]()
    database = database.copy()
    started = time.perf_counter()
    answers = 0
    if spec["kind"] == "repeated":
        for _ in range(spec["repeats"]):
            answers = len(run_engine(spec["engine"], program, query, database).answers)
    else:
        for batch in spec["growth"]():
            for predicate, rows in _group(batch).items():
                database.add_facts(predicate, rows)
            answers = len(run_engine(spec["engine"], program, query, database).answers)
    return time.perf_counter() - started, answers


def measure_session(spec):
    """The session layer: cached materializations + incremental resume."""
    from repro.session import QuerySession

    program, database, query = spec["workload"]()
    session = QuerySession(program, database.copy(), engine=spec["engine"])
    started = time.perf_counter()
    answers = 0
    if spec["kind"] == "repeated":
        for _ in range(spec["repeats"]):
            answers = len(session.query(query).answers)
    else:
        for batch in spec["growth"]():
            for predicate, rows in _group(batch).items():
                session.insert_facts(predicate, rows)
            answers = len(session.query(query).answers)
    return time.perf_counter() - started, answers


def run_pass(flavour):
    results = {}
    for name, spec in scenario_matrix().items():
        measure = measure_baseline if flavour == "baseline" else measure_session
        seconds, answers = measure(spec)
        results[name] = {"seconds": seconds, "answers": answers}
    return results


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_session.json")
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating baseline/session measurement rounds")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a scenario misses its target")
    parser.add_argument(
        "--baseline-path",
        default=None,
        help="src directory of a pre-session checkout for the baseline pass",
    )
    parser.add_argument(
        "--measure-only",
        choices=["baseline", "session"],
        default=None,
        help="internal: print one measurement pass as JSON and exit",
    )
    args = parser.parse_args()

    if args.measure_only:
        json.dump(run_pass(args.measure_only), sys.stdout)
        return 0

    here = repo_src()
    baseline_src = args.baseline_path or here
    baseline_label = (
        f"pre-session checkout at {args.baseline_path}"
        if args.baseline_path
        else "per-query full recomputation (one-shot run_engine, current tree)"
    )

    before, after = alternating_passes(
        __file__, args.rounds, (baseline_src, "baseline"), (here, "session")
    )
    check_answer_parity(before, after)

    results = {}
    misses = []
    for cell in sorted(after):
        baseline_s = before[cell]["seconds"]
        session_s = after[cell]["seconds"]
        speedup = baseline_s / session_s if session_s else float("inf")
        target = (
            REPEAT_QUERY_THRESHOLD
            if cell.startswith("repeated-query/")
            else STREAMING_THRESHOLD
        )
        results[cell] = {
            "baseline_s": round(baseline_s, 6),
            "session_s": round(session_s, 6),
            "amortized_speedup": round(speedup, 3),
            "target": target,
        }
        if speedup < target:
            misses.append((cell, speedup, target))

    report = {
        "meta": {
            "baseline": baseline_label,
            "rounds": args.rounds,
            "python": sys.version.split()[0],
            "targets": {
                "repeated-query": REPEAT_QUERY_THRESHOLD,
                "fact-streaming": STREAMING_THRESHOLD,
            },
        },
        "results": results,
    }
    write_report(args.output, report)

    width = max(len(cell) for cell in results)
    print(f"{'scenario'.ljust(width)}  baseline_s  session_s  speedup  target")
    for cell, row in sorted(results.items()):
        print(
            f"{cell.ljust(width)}  {row['baseline_s']:10.4f}  {row['session_s']:9.4f}"
            f"  {row['amortized_speedup']:6.2f}x  >={row['target']:.0f}x"
        )
    if misses:
        print("\nscenarios below target:")
        for cell, speedup, target in misses:
            print(f"  {cell}: {speedup:.2f}x < {target:.0f}x")
        return 1 if args.strict else 0
    print("\nall scenarios meet their amortization targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
