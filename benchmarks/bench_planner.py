"""Before/after wall-clock benchmark for the cost-based join orderer.

Runs the same workload matrix twice in alternating subprocesses -- once
under the default ``legacy`` plan mode and once under
``configured(plan="cost")`` -- and reports per-cell speedups.  Both passes
run the current tree (the legacy planner is preserved verbatim, so the
same-tree comparison *is* the honest before/after).

``threshold`` cells are adversarially ordered: rule bodies written so the
legacy greedy bound-count order starts from a huge full scan even though a
highly selective literal is available, or drives a recursive delta round
from the wrong side.  The cost planner must reorder them for a
``THRESHOLD`` (2x) speedup.  ``guard`` cells are well-ordered workloads
straight from the benchmark families -- chain transitive closure and the
Fig-7 samples -- where the legacy order is already near-optimal; cost mode
must not regress them below ``GUARD_FLOOR`` (0.9x), pinning that the
statistics and search overhead is amortised by the plan cache.

Garbage collection stays enabled during measurement: full collections
scanning the row dictionaries are part of what real users pay, and
disabling gc would hide them.  A ``gc.collect()`` between cells keeps one
cell's garbage from being charged to the next.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from helpers import (
    alternating_passes,
    calibrated_best,
    check_answer_parity,
    repo_src,
    write_report,
)

#: speedup floor for the adversarially-ordered cells
THRESHOLD = 2.0
#: no benchmarked family may regress below this under cost mode
GUARD_FLOOR = 0.9


def _adversarial_join(n: int, keys: int = 64):
    """A single-rule join written worst-scan-first.

    ``big`` is ``n`` rows, ``filt`` keeps exactly one join key and
    ``small`` maps keys to outputs.  The legacy greedy order (no initial
    bindings, tie broken textually) scans ``big`` in full; the cost order
    starts from ``filt`` and reaches ``big`` through its column index.
    """
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_literal, parse_program

    program = parse_program(
        "result(X, Z) :- big(X, Y), small(Y, Z), filt(Y)."
    )
    database = Database.from_dict(
        {
            "big": [(f"x{i}", f"y{i % keys}") for i in range(n)],
            "small": [(f"y{k}", f"z{k}") for k in range(keys)],
            "filt": [("y3",)],
        }
    )
    return program, database, parse_literal("result(X, Z)")


def _adversarial_reach(n: int, tail: int):
    """Seeded reachability with the recursive body written scan-first.

    One seed near the end of an ``n``-edge chain reaches only ``tail``
    nodes, so the per-round delta is a single tuple -- but the recursive
    rule opens with ``e(Y, Z)``, and the legacy greedy order (zero bound
    positions everywhere, tie broken textually) rescans the full edge
    relation every round.  The cost order drives each round from the
    delta occurrence and reaches ``e`` through its column index.
    """
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_literal, parse_program

    program = parse_program(
        "reach(X, Y) :- seed(X), e(X, Y).\n"
        "reach(X, Z) :- e(Y, Z), reach(X, Y)."
    )
    database = Database.from_dict(
        {
            "e": [(i, i + 1) for i in range(n)],
            "seed": [(n - tail,)],
        }
    )
    return program, database, parse_literal("reach(X, Y)")


def cell_matrix():
    """``name -> (workload thunk, engine, kind)`` for every benchmarked cell."""
    from repro.workloads import chain, sample_a, sample_b

    return {
        # -- threshold cells: adversarially-ordered bodies ------------------
        "adversarial-join-6k/seminaive": (
            lambda: _adversarial_join(6000),
            "seminaive",
            "threshold",
        ),
        "adversarial-join-12k/seminaive": (
            lambda: _adversarial_join(12000),
            "seminaive",
            "threshold",
        ),
        "adversarial-reach-6k/seminaive": (
            lambda: _adversarial_reach(6000, 120),
            "seminaive",
            "threshold",
        ),
        # -- guard cells: well-ordered, must simply not regress -------------
        "tc-chain-400/seminaive": (lambda: chain(400), "seminaive", "guard"),
        "fig7a-600/seminaive": (lambda: sample_a(600), "seminaive", "guard"),
        "fig7b-160/seminaive": (lambda: sample_b(160), "seminaive", "guard"),
        "fig7a-300/magic": (lambda: sample_a(300), "magic", "guard"),
    }


def run_pass(flavour: str, repeats: int) -> dict:
    """Measure every cell under ``flavour`` ("legacy" or "cost")."""
    from repro.config import configured
    from repro.engines import run_engine
    from repro.instrumentation import Counters

    results = {}
    for name, (generate, engine, _kind) in cell_matrix().items():
        program, database, query = generate()

        def one_run():
            fresh = database.copy()
            counters = Counters()
            fresh.reset_instrumentation(counters)
            started = time.perf_counter()
            result = run_engine(engine, program, query, fresh, counters)
            return time.perf_counter() - started, len(result.answers)

        with configured(plan=flavour):
            seconds, answers = calibrated_best(
                one_run, repeats, floor_seconds=0.5, max_loops=12
            )
        gc.collect()
        results[name] = {"seconds": seconds, "answers": answers}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_planner.json")
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating legacy/cost measurement rounds")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of repeats inside each measurement pass")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a cell misses its target")
    parser.add_argument(
        "--measure-only",
        choices=["legacy", "cost"],
        default=None,
        help="internal: print one measurement pass as JSON and exit",
    )
    args = parser.parse_args()

    if args.measure_only:
        json.dump(run_pass(args.measure_only, args.repeats), sys.stdout)
        return 0

    here = repo_src()
    before, after = alternating_passes(
        __file__,
        args.rounds,
        (here, "legacy"),
        (here, "cost"),
        ("--repeats", str(args.repeats)),
    )
    check_answer_parity(before, after)

    kinds = {name: kind for name, (_g, _e, kind) in cell_matrix().items()}
    results = {}
    misses = []
    for cell in sorted(after):
        legacy_s = before[cell]["seconds"]
        cost_s = after[cell]["seconds"]
        speedup = legacy_s / cost_s if cost_s else float("inf")
        target = THRESHOLD if kinds[cell] == "threshold" else GUARD_FLOOR
        results[cell] = {
            "legacy_s": round(legacy_s, 6),
            "cost_s": round(cost_s, 6),
            "speedup": round(speedup, 3),
            "kind": kinds[cell],
            "target": target,
        }
        if speedup < target:
            misses.append((cell, speedup, target))

    report = {
        "meta": {
            "baseline": "current tree, legacy plan mode",
            "rounds": args.rounds,
            "repeats": args.repeats,
            "python": sys.version.split()[0],
            "targets": {"threshold": THRESHOLD, "guard": GUARD_FLOOR},
        },
        "results": results,
    }
    write_report(args.output, report)

    width = max(len(cell) for cell in results)
    print(f"{'cell'.ljust(width)}  legacy_s  cost_s  speedup  target")
    for cell, row in sorted(results.items()):
        print(
            f"{cell.ljust(width)}  {row['legacy_s']:8.4f}  {row['cost_s']:6.4f}"
            f"  {row['speedup']:6.2f}x  >={row['target']:.1f}x"
        )
    if misses:
        print("\ncells below target:")
        for cell, speedup, target in misses:
            print(f"  {cell}: {speedup:.2f}x < {target:.1f}x")
        return 1 if args.strict else 0
    print("\nall cells meet their targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
