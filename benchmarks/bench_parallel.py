"""Scaling benchmark for the parallel fixpoint offload.

Runs the same workload matrix twice in the *same* tree -- once at
``configured(parallelism=1)`` (the sequential oracle path) and once at
``configured(parallelism=min(4, os.cpu_count()))`` -- under the columnar
executor and kernel storage, and reports per-cell speedups into
``BENCH_parallel.json``.

``threshold`` cells are transitive closures of sparse random digraphs with
over a million derived rows each: every path tuple is re-derived several
times (``fact_retrievals`` runs 3-6x ``derived_tuples``), so the join *and*
the duplicate pruning -- the bulk of the evaluation -- execute on the fork
pool, while the parent's serial share is one bulk merge of the novel rows.
On a 4-CPU host the 4-worker pass must reach ``PARALLEL_THRESHOLD``
(2.5x).  ``guard`` cells are shapes the offload must leave alone -- a
right-linear chain (ineligible) and a closure whose seed delta is below
the 4096-row threshold -- which must never regress below ``GUARD_FLOOR``
(0.9x): parallelism that is not engaged must cost nothing.  Two ``info``
cells are reported but never gated: disjoint chains derive every tuple
exactly once, so nearly all their cost is the parent's serial insert and
the offload cannot pay for itself; and two independent threshold-sized
closures plus a join in one stratum, which offload one after the other
while the join runs in process.

The speedup gate is only meaningful on a multi-core host.  The report
records ``os.cpu_count()`` and the worker count; when fewer than 4 CPUs
are available (or fork is unavailable) ``--strict`` downgrades threshold
misses to informational -- CI's 4-vCPU runners enforce the scaling claim.

Answers are cross-checked between the two passes, and the measurement
protocol (alternating subprocess passes, per-cell minimum, gc enabled) is
shared with the other wall-clock benchmarks via ``helpers``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from helpers import (
    alternating_passes,
    check_answer_parity,
    repo_src,
    write_report,
)

#: 4-vs-1-worker speedup floor for the threshold cells (enforced on >=4 CPUs)
PARALLEL_THRESHOLD = 2.5
#: no guard cell may regress below this in the parallel pass
GUARD_FLOOR = 0.9


_TC_PROGRAM = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def _wide_tc(chains: int, length: int):
    """``chains`` disjoint chains of ``length`` edges, left-linear closure.

    Derived rows: ``chains * length * (length + 1) / 2``, each derived
    exactly once -- the zero-duplication extreme where the parent's serial
    merge dominates the offloaded join work.
    """
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_literal, parse_program

    program = parse_program(_TC_PROGRAM)
    database = Database()
    for chain_index in range(chains):
        base = chain_index * (length + 1)
        for i in range(length):
            database.add_fact("edge", (base + i, base + i + 1))
    return program, database, parse_literal("path(X, Y)")


def _random_edges(nodes: int, edges: int, seed: int) -> set:
    """``edges`` distinct non-loop pairs over ``nodes`` nodes (fixed seed)."""
    import random

    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a != b:
            pairs.add((a, b))
    return pairs


def _random_tc(nodes: int, edges: int, seed: int):
    """Left-linear closure of a sparse random digraph (fixed seed).

    The giant component makes most node pairs reachable along several
    routes, so every derived tuple is produced a handful of times: the
    dominant cost is join-plus-dedup, which the fixpoint offload runs
    entirely on the pool.
    """
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_literal, parse_program

    program = parse_program(_TC_PROGRAM)
    database = Database()
    for a, b in _random_edges(nodes, edges, seed):
        database.add_fact("edge", (a, b))
    return program, database, parse_literal("path(X, Y)")


def _twin_tc(nodes: int, edges: int):
    """Two independent left-linear closures and a join above them.

    Both closures are over ``nodes``-node random digraphs with ``edges``
    edges each (different seeds), so each seed delta clears the offload
    threshold; all three components share one stratum.
    """
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_literal, parse_program

    program = parse_program(
        """
        reach_a(X, Y) :- edge_a(X, Y).
        reach_a(X, Z) :- reach_a(X, Y), edge_a(Y, Z).
        reach_b(X, Y) :- edge_b(X, Y).
        reach_b(X, Z) :- reach_b(X, Y), edge_b(Y, Z).
        both(X, Y) :- reach_a(X, Y), reach_b(X, Y).
        """
    )
    database = Database()
    for predicate, seed in (("edge_a", 3), ("edge_b", 5)):
        for pair in _random_edges(nodes, edges, seed):
            database.add_fact(predicate, pair)
    return program, database, parse_literal("both(X, Y)")


def cell_matrix():
    """``name -> (workload thunk, kind)``; all cells run the seminaive engine."""
    from repro.workloads import chain

    return {
        # -- threshold cells: >=1M derived rows, duplicate-heavy ------------
        "tc-rand-1100x6600/seminaive": (lambda: _random_tc(1100, 6600, 11), "threshold"),
        "tc-rand-1300x5200/seminaive": (lambda: _random_tc(1300, 5200, 7), "threshold"),
        # -- info cells: reported but not gated ----------------------------
        "tc-wide-2000x40/seminaive": (lambda: _wide_tc(2000, 40), "info"),
        "tc-twin-700x4200/seminaive": (lambda: _twin_tc(700, 4200), "info"),
        # -- guard cells: the offload must not engage, and must not cost ----
        "tc-chain-600/seminaive": (lambda: chain(600), "guard"),
        "tc-wide-40x40/seminaive": (lambda: _wide_tc(40, 40), "guard"),
    }


def run_pass(flavour: str, repeats: int) -> dict:
    """Measure every cell at ``flavour`` workers (a decimal count)."""
    from repro.config import configured
    from repro.engines import run_engine
    from repro.instrumentation import Counters

    workers = int(flavour)
    results = {}
    for name, (generate, _kind) in cell_matrix().items():
        program, database, query = generate()

        def one_run():
            fresh = database.copy()
            counters = Counters()
            fresh.reset_instrumentation(counters)
            started = time.perf_counter()
            result = run_engine("seminaive", program, query, fresh, counters)
            return time.perf_counter() - started, len(result.answers)

        with configured(parallelism=workers, execution="columnar"):
            best = float("inf")
            answers = None
            for _ in range(repeats):
                seconds, answers = one_run()
                best = min(best, seconds)
        gc.collect()
        results[name] = {"seconds": best, "answers": answers}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_parallel.json")
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating 1-worker/N-worker measurement rounds, "
                        "N = min(4, CPU count)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of repeats inside each measurement pass")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a cell misses its target "
                        "(threshold cells only gate on hosts with >=4 CPUs)")
    parser.add_argument(
        "--measure-only",
        default=None,
        metavar="WORKERS",
        help="internal: print one measurement pass as JSON and exit",
    )
    args = parser.parse_args()

    if args.measure_only:
        json.dump(run_pass(args.measure_only, args.repeats), sys.stdout)
        return 0

    sys.path.insert(0, repo_src())
    from repro.parallel import fork_available

    here = repo_src()
    workers = min(4, os.cpu_count() or 1)
    before, after = alternating_passes(
        __file__,
        args.rounds,
        (here, "1"),
        (here, str(workers)),
        ("--repeats", str(args.repeats)),
    )
    check_answer_parity(before, after)

    cpu_count = os.cpu_count() or 1
    scaling_host = cpu_count >= 4 and fork_available()
    kinds = {name: kind for name, (_g, kind) in cell_matrix().items()}
    results = {}
    misses = []
    for cell in sorted(after):
        sequential_s = before[cell]["seconds"]
        parallel_s = after[cell]["seconds"]
        speedup = sequential_s / parallel_s if parallel_s else float("inf")
        kind = kinds[cell]
        if kind == "threshold":
            target = PARALLEL_THRESHOLD
            enforced = scaling_host
        elif kind == "guard":
            target = GUARD_FLOOR
            enforced = True
        else:  # info: reported, never gated
            target = None
            enforced = False
        results[cell] = {
            "sequential_s": round(sequential_s, 6),
            "parallel_s": round(parallel_s, 6),
            "speedup": round(speedup, 3),
            "kind": kind,
            "target": target,
            "enforced": enforced,
        }
        if enforced and target is not None and speedup < target:
            misses.append((cell, speedup, target))

    report = {
        "meta": {
            "comparison": f"same tree, 1 vs {workers} workers (columnar + kernel)",
            "cpu_count": cpu_count,
            "workers": workers,
            "fork_available": fork_available(),
            "scaling_gate_enforced": scaling_host,
            "rounds": args.rounds,
            "repeats": args.repeats,
            "python": sys.version.split()[0],
            "targets": {
                "threshold": PARALLEL_THRESHOLD,
                "guard": GUARD_FLOOR,
            },
        },
        "results": results,
    }
    write_report(args.output, report)

    width = max(len(cell) for cell in results)
    print(f"{'cell'.ljust(width)}  1-worker_s  {workers}-worker_s  speedup  target")
    for cell, row in sorted(results.items()):
        gate = (
            f">={row['target']:.1f}x"
            if row["enforced"] and row["target"] is not None
            else "(info)"
        )
        print(
            f"{cell.ljust(width)}  {row['sequential_s']:10.4f}  {row['parallel_s']:10.4f}"
            f"  {row['speedup']:6.2f}x  {gate}"
        )
    if not scaling_host:
        print(f"\nscaling gate not enforced: {cpu_count} CPU(s) available")
    if misses:
        print("\ncells below target:")
        for cell, speedup, target in misses:
            print(f"  {cell}: {speedup:.2f}x < {target:.1f}x")
        return 1 if args.strict else 0
    print("\nall enforced cells meet their targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
