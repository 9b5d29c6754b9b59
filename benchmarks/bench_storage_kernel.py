"""Before/after wall-clock benchmark for the interned storage kernel.

Measures every engine of the Section-3 comparison (Table 1) on the Figure 7
samples at n = 40, plus the Fig-7 scaling family at larger n for the
relalg-heavy strategies (Henschen-Naqvi, counting, graph traversal) and the
bottom-up join path (seminaive), and writes ``BENCH_storage.json``::

    {
      "meta": {...},
      "results": {"<workload>/<engine>": {"before_s": ..., "after_s": ...,
                                          "speedup": ...}, ...}
    }

Two baseline flavours:

* ``--baseline-path <src>`` -- run the same measurements in a subprocess with
  ``PYTHONPATH`` pointing at a pre-kernel checkout (the honest historical
  baseline; used to generate the committed numbers);
* no flag -- measure the current tree twice, once under the ``"reference"``
  storage mode and once under ``"kernel"``.  This is what CI runs.  The
  reference mode switches only ``Database.scan`` (charged row by row, no
  bucket memo) and ``Database.image`` (the per-row object-tuple loop); the
  columnar executor's batch probes run identically in both modes, so on
  batch-heavy cells such as seminaive the two runs differ only in those
  two methods and the ratio moves toward 1.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage_kernel.py \
        [--output BENCH_storage.json] [--baseline-path /path/to/old/src] \
        [--repeats 3]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from helpers import (
    alternating_passes,
    calibrated_best,
    check_answer_parity,
    repo_src,
    write_report,
)


def workload_matrix():
    from repro.workloads import sample_a, sample_b, sample_c

    # The five strategies of the paper's Section-3 comparison table, plus
    # seminaive as the representative of the bottom-up join path.  (Naive
    # evaluation is excluded: its round structure is defined by enumeration
    # order, so wall-clock across storage generations compares different
    # amounts of counted work, not the same work on different storage.)
    table1_engines = [
        "henschen-naqvi",
        "magic",
        "counting",
        "reverse-counting",
        "graph",
        "seminaive",
    ]
    matrix = {}
    for name, generator in (("a", sample_a), ("b", sample_b), ("c", sample_c)):
        for engine in table1_engines:
            matrix[f"table1-sample-{name}-n40/{engine}"] = (generator, 40, engine)
    # The Fig-7 scaling family: the workloads whose asymptotics Section 3
    # compares, at sizes where the growth term dominates the constant.
    for engine in ("henschen-naqvi", "counting", "graph", "seminaive"):
        matrix[f"fig7a-scaling-n400/{engine}"] = (sample_a, 400, engine)
        matrix[f"fig7c-scaling-n300/{engine}"] = (sample_c, 300, engine)
    for engine in ("counting", "graph", "seminaive"):
        matrix[f"fig7b-scaling-n150/{engine}"] = (sample_b, 150, engine)
    # Henschen-Naqvi is quadratic on (b) like on (c); keep the size moderate.
    matrix["fig7b-scaling-n150/henschen-naqvi"] = (sample_b, 150, "henschen-naqvi")
    return matrix


def measure_cell(generator, size, engine, repeats):
    """Best-of-N wall clock, with N calibrated so tiny cells are not noise.

    A warm-up run estimates the cell cost; the loop count is then raised
    until the measured batch covers at least ~80 ms, timeit-style, and the
    minimum per-run time is reported.
    """
    import time

    from repro.engines import run_engine
    from repro.instrumentation import Counters

    program, database, query = generator(size)

    def one_run():
        fresh = database.copy()
        counters = Counters()
        fresh.reset_instrumentation(counters)
        started = time.perf_counter()
        result = run_engine(engine, program, query, fresh, counters)
        return time.perf_counter() - started, len(result.answers)

    return calibrated_best(one_run, repeats)


def run_measurements(repeats, mode=None):
    """One pass over the matrix; ``mode`` names the storage setting, and
    ``None`` leaves the tree's defaults (the only choice a tree that predates
    ``repro.config`` accepts)."""
    settings = contextlib.nullcontext()
    if mode is not None:
        from repro.config import configured

        settings = configured(storage=mode)
    results = {}
    with settings:
        for cell, (generator, size, engine) in workload_matrix().items():
            seconds, answer_count = measure_cell(generator, size, engine, repeats)
            results[cell] = {"seconds": seconds, "answers": answer_count}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_storage.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating baseline/kernel measurement rounds")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any cell regresses beyond 10%%")
    parser.add_argument(
        "--baseline-path",
        default=None,
        help="src directory of a pre-kernel checkout to use as the baseline",
    )
    parser.add_argument(
        "--measure-only",
        choices=["kernel", "reference", "plain"],
        default=None,
        help="internal: print one measurement pass as JSON and exit",
    )
    args = parser.parse_args()

    if args.measure_only:
        mode = None if args.measure_only == "plain" else args.measure_only
        json.dump(run_measurements(args.repeats, mode), sys.stdout)
        return 0

    here = repo_src()
    if args.baseline_path:
        baseline_label = f"pre-kernel checkout at {args.baseline_path}"
        baseline = (args.baseline_path, "plain")
    else:
        baseline_label = "current tree under the 'reference' storage mode"
        baseline = (here, "reference")

    # Alternate baseline and kernel passes so machine-load drift hits both
    # sides of the comparison about equally; keep the per-cell minimum.
    extra = ("--repeats", str(args.repeats))
    before, after = alternating_passes(
        __file__, args.rounds, baseline, (here, "kernel"), extra
    )
    check_answer_parity(before, after)

    results = {}
    regressions, best_speedup = [], (None, 0.0)
    for cell in sorted(after):
        before_s = before[cell]["seconds"]
        after_s = after[cell]["seconds"]
        speedup = before_s / after_s if after_s else float("inf")
        results[cell] = {
            "before_s": round(before_s, 6),
            "after_s": round(after_s, 6),
            "speedup": round(speedup, 3),
        }
        if speedup > best_speedup[1]:
            best_speedup = (cell, speedup)
        if speedup < 0.9:
            regressions.append((cell, speedup))

    report = {
        "meta": {
            "baseline": baseline_label,
            "repeats": args.repeats,
            "python": sys.version.split()[0],
        },
        "results": results,
    }
    write_report(args.output, report)

    width = max(len(cell) for cell in results)
    print(f"{'cell'.ljust(width)}  before_s  after_s  speedup")
    for cell, row in sorted(results.items()):
        print(
            f"{cell.ljust(width)}  {row['before_s']:8.4f}  {row['after_s']:7.4f}"
            f"  {row['speedup']:6.2f}x"
        )
    print(f"\nbest: {best_speedup[0]} at {best_speedup[1]:.2f}x")
    if regressions:
        print("regressions beyond 10%:")
        for cell, speedup in regressions:
            print(f"  {cell}: {speedup:.2f}x")
        return 1 if args.strict else 0
    print("no workload regressed by more than 10%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
