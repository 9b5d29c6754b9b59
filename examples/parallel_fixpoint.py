"""Parallel fixpoint evaluation: the whole-fixpoint offload.

Evaluates the left-linear transitive closure of many short disjoint chains.
The closure's only delta plan, ``path(X, Z) :- path(X, Y), edge(Y, Z)``,
carries ``X`` from the recursive literal to the head unchanged, so the
fixpoint partitions by ``X``: with ``configured(parallelism=n)`` for
``n > 1`` and a seed delta of at least 4096 rows, each of ``n`` forked
workers runs every delta round of its partition and the parent merges the
new rows once.

The point of the demo is the invariant, not the speed-up (thousands of
short chains derive every row exactly once, the shape that gains least):
whatever the worker count, answers and work counters are identical to the
sequential run, which stays the differential oracle.

Run with:  python examples/parallel_fixpoint.py [chain length, at least 5]
"""

import sys

from repro import configured
from repro.datalog.database import Database
from repro.datalog.parser import parse_literal, parse_program
from repro.engines import run_engine
from repro.parallel import fork_available

PROGRAM = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
"""

#: Enough chains that the seed delta (one ``path`` row per edge) clears the
#: offload's 4096-row threshold at any chain length from 5 up.
CHAINS = 1000


def build(length):
    database = Database()
    for chain in range(CHAINS):
        base = chain * (length + 1)
        for i in range(length):
            database.add_fact("edge", (base + i, base + i + 1))
    return parse_program(PROGRAM), database, parse_literal("path(X, Y)")


def evaluate(workers, length):
    program, database, query = build(length)
    with configured(parallelism=workers, execution="columnar"):
        return run_engine("seminaive", program, query, database)


def main() -> None:
    length = max(5, int(sys.argv[1]) if len(sys.argv) > 1 else 12)
    sequential = evaluate(1, length)
    parallel = evaluate(2, length)

    print(
        f"Parallel fixpoint demo ({CHAINS} chains of {length} edges, "
        f"fork available: {fork_available()})"
    )
    print(f"  answers:      {len(sequential.answers)} rows")
    print(f"  seq counters: {sequential.counters}")
    print(f"  par counters: {parallel.counters}")
    stats = parallel.batch_stats
    print(
        f"  par batches:  {stats.batches} "
        f"(worker tasks: {stats.shards}, merge: {stats.merge_seconds * 1000:.1f} ms)"
    )
    same_answers = parallel.answers == sequential.answers
    same_counters = parallel.counters == sequential.counters
    print(f"  answers identical:  {'yes' if same_answers else 'NO'}")
    print(f"  counters identical: {'yes' if same_counters else 'NO'}")
    print(
        "\nWith fork available, the 2-worker run partitions the seed delta by X\n"
        "and runs each partition's delta rounds to completion in a forked\n"
        "worker (2 tasks, one merge); it replays the sequential charging\n"
        "contract exactly -- the counters above must match."
    )


if __name__ == "__main__":
    main()
