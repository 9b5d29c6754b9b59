"""The repository's before/after wall-clock claims, measured by one protocol.

Every cell times two sides of one comparison on one workload and gates the
speedup ``before_s / after_s``:

* ``session`` -- per-query recompute (one-shot ``run_engine`` over the grown
  database) vs one :class:`repro.session.QuerySession` serving repeated
  queries from its cached materialization, or resuming it as facts stream
  in;
* ``strata`` -- the naive vs the seminaive engine on stratified and positive
  programs (tracking only), and a from-scratch materialization vs the
  lowest-affected-stratum resume after a top-stratum delta;
* ``deletion`` -- a from-scratch materialization over the reduced database
  vs the delete-rederive (DRed) resume of the cached model;
* ``planner`` -- the ``legacy`` vs the ``cost`` join planner;
* ``parallel`` -- the whole-fixpoint offload at 1 vs ``min(4, cpu_count)``
  workers.

A cell's kind says how it gates: ``threshold`` cells must reach their
target speedup, ``guard`` cells must not fall below theirs, ``info`` cells
are reported only.  Parallel threshold cells gate only on hosts with at
least 4 CPUs and ``fork``.

Protocol: a pass runs one family's cells for one side, in table order, in
a fresh interpreter that imports ``repro`` from this process's
``PYTHONPATH``; the sides alternate over ``--rounds`` so that machine-load
drift hits both about equally, and each cell keeps its fastest time over
all rounds.  A run of a side is untimed set-up, the timed action, then an
untimed digest of what the action computed (its answers, or every relation
of the model).  Within a pass a cell runs at least ``--repeats`` times,
more when its first run is short, and keeps the best; ``gc.collect()``
runs between cells, with gc left on while timing, since full collections
are part of what callers pay.  The two sides of a cell must compute the
same digest, or the run aborts.

Usage::

    PYTHONPATH=src python benchmarks/run.py [--family F ...] [--rounds 3]
        [--repeats 2] [--strict] [--output BENCH.json]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import repro
from repro.config import configured
from repro.datalog.database import Database, Delta
from repro.datalog.parser import parse_literal, parse_program
from repro.engines import get_engine, run_engine
from repro.instrumentation import Counters
from repro.parallel import fork_available
from repro.session import QuerySession
from repro.workloads import (
    binary_tree,
    chain,
    non_reachability,
    random_genealogy,
    sample_a,
    sample_b,
    sample_c,
    shortest_paths,
    win_not_move,
)

FAMILIES = ("session", "strata", "deletion", "planner", "parallel")
#: the parallel family's ``after`` side
WORKERS = min(4, os.cpu_count() or 1)
#: a cell whose first run is short repeats until its runs cover FLOOR_S
#: seconds, at most MAX_RUNS times, so millisecond cells are not pure noise
FLOOR_S = 0.5
MAX_RUNS = 12

#: A side's ``setup(workload, counters)`` does the untimed set-up and
#: returns ``(action, finish)``: ``action()`` is the timed call and
#: ``finish(result)`` turns what it returned into ``{name: rows}`` to digest.
Setup = Callable[[tuple, Counters], Tuple[Callable[[], object], Callable[[object], dict]]]


class Side(NamedTuple):
    label: str
    setup: Setup
    config: Dict[str, object] = {}


class Cell(NamedTuple):
    family: str
    name: str
    build: Callable[[], tuple]
    before: Side
    after: Side
    kind: str  # "threshold", "guard" or "info"
    target: Optional[float]

    @property
    def key(self) -> str:
        return f"{self.family}/{self.name}"


def _answers(answers) -> dict:
    return {"answers": answers}


def _model(database: Database) -> dict:
    return {p: database.rows(p) for p in database.predicates() if database.count(p)}


# ---------------------------------------------------------------------------
# Sides
# ---------------------------------------------------------------------------

def one_shot(engine: str, label: str, **config) -> Side:
    """``run_engine`` from scratch over a fresh copy of the database."""

    def setup(workload, counters):
        program, database, query = workload
        fresh = database.copy()
        fresh.reset_instrumentation(counters)
        return (lambda: run_engine(engine, program, query, fresh, counters).answers), _answers

    return Side(label, setup, config)


def recompute(engine: str) -> Side:
    """Each step adds its facts, then re-runs ``engine`` from scratch."""

    def setup(workload, counters):
        program, database, query, steps = workload
        database = database.copy()

        def action():
            for batch in steps:
                for predicate, rows in batch.items():
                    database.add_facts(predicate, rows)
                answers = run_engine(engine, program, query, database, counters).answers
            return answers

        return action, _answers

    return Side("recompute", setup)


def serve(engine: str) -> Side:
    """One session: each step inserts its facts, then queries the session."""

    def setup(workload, counters):
        program, database, query, steps = workload
        session = QuerySession(program, database.copy(), engine=engine)

        def action():
            for batch in steps:
                for predicate, rows in batch.items():
                    session.insert_facts(predicate, rows)
                answers = session.query(query, counters=counters).answers
            return answers

        def finish(answers):
            # materializing and resuming charge the materialization's counters
            counters.absorb(session.materialization(engine).counters)
            return _answers(answers)

        return action, finish

    return Side("session", setup)


def _stratum_scratch(workload, counters):
    program, database, query, delta = workload
    grown = database.copy()
    for predicate, rows in delta.items():
        grown.add_facts(predicate, rows)
    engine = get_engine("seminaive")
    return (lambda: engine.materialize(program, grown, counters).answer(query).answers), _answers


def _stratum_resume(workload, counters):
    program, database, query, delta = workload
    engine = get_engine("seminaive")
    materialization = engine.materialize(program, database.copy())
    materialization.answer(query)

    def action():
        resumed = engine.resume(materialization, delta, counters=counters)
        return resumed.answer(query).answers

    return action, _answers


def _dred_scratch(workload, counters):
    program, _database, reduced, _delta = workload
    fresh = reduced.copy()
    engine = get_engine("seminaive")
    return (lambda: engine.materialize(program, fresh, counters).database), _model


def _dred_resume(workload, counters):
    program, database, _reduced, delta = workload
    engine = get_engine("seminaive")
    materialization = engine.materialize(program, database.copy())
    return (lambda: engine.resume(materialization, delta, counters=counters).database), _model


NAIVE = one_shot("naive", "naive")
SEMINAIVE = one_shot("seminaive", "seminaive")
SCRATCH = Side("scratch", _stratum_scratch)
RESUME = Side("resume", _stratum_resume)
DRED_SCRATCH = Side("scratch", _dred_scratch)
DRED_RESUME = Side("resume", _dred_resume)


def _planned(engine: str) -> Tuple[Side, Side]:
    return (one_shot(engine, "legacy", plan="legacy"), one_shot(engine, "cost", plan="cost"))


LEGACY_COST = _planned("seminaive")
SEQUENTIAL = one_shot("seminaive", "1 worker", parallelism=1, execution="columnar")
PARALLEL = one_shot(
    "seminaive", f"{WORKERS} workers", parallelism=WORKERS, execution="columnar"
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _repeated(workload, times: int) -> tuple:
    """The same query ``times`` times over an unchanged database."""
    return (*workload, [{}] * times)


def _fig7a_growth(n: int, batches: int, per_batch: int) -> tuple:
    """Sample (a) with new fan legs up(a, b_k), flat(b_k, c) beyond n."""
    steps = []
    for start in range(n + 1, n + 1 + batches * per_batch, per_batch):
        legs = range(start, start + per_batch)
        steps.append({
            "up": [("a", f"b{k}") for k in legs],
            "flat": [(f"b{k}", "c") for k in legs],
        })
    return (*sample_a(n), steps)


def _fig7c_growth(n: int, batches: int, per_batch: int) -> tuple:
    """Sample (c) with its up/flat/down chain extended past level n."""
    steps = []
    for start in range(n, n + batches * per_batch, per_batch):
        levels = range(start, start + per_batch)
        steps.append({
            "up": [(f"a{k}", f"a{k + 1}") for k in levels],
            "flat": [(f"a{k + 1}", f"b{k + 1}") for k in levels],
            "down": [(f"b{k + 1}", f"b{k}") for k in levels],
        })
    return (*sample_c(n), steps)


def _top_stratum_delta(n: int) -> tuple:
    """Non-reachability over ``n`` nodes plus 10 new ``node`` rows, which
    only the top stratum (the anti-join over ``tc``) reads."""
    program, database, query = non_reachability(n, extra_edges=50, seed=2)
    return program, database, query, {"node": [(n + k,) for k in range(10)]}


def _tree_retraction(depth: int, fraction: float, leaves_only: bool) -> tuple:
    """Transitive closure of a binary tree and a retraction of ``fraction``
    of its edges: leaf edges, whose consequences are a thin slice of the
    closure, or random edges, which on a tree can invalidate half of it."""
    program, database, _query = binary_tree(depth)
    (predicate,) = database.predicates()
    rows = list(database.relations[predicate].table.all_rows())
    sources = {row[0] for row in rows}
    pool = [row for row in rows if row[1] not in sources] if leaves_only else rows
    count = max(1, int(len(rows) * fraction))
    deleted = random.Random(7).sample(pool, min(count, len(pool)))
    reduced = database.copy()
    reduced.remove_facts(predicate, deleted)
    return program, database, reduced, Delta(deletes={predicate: deleted})


def _adversarial_join(n: int, keys: int = 64) -> tuple:
    """A single-rule join written worst-scan-first.

    ``big`` is ``n`` rows, ``filt`` keeps exactly one join key and
    ``small`` maps keys to outputs.  The legacy greedy order (no initial
    bindings, tie broken textually) scans ``big`` in full; the cost order
    starts from ``filt`` and reaches ``big`` through its column index.
    """
    program = parse_program("result(X, Z) :- big(X, Y), small(Y, Z), filt(Y).")
    database = Database.from_dict(
        {
            "big": [(f"x{i}", f"y{i % keys}") for i in range(n)],
            "small": [(f"y{k}", f"z{k}") for k in range(keys)],
            "filt": [("y3",)],
        }
    )
    return program, database, parse_literal("result(X, Z)")


def _adversarial_reach(n: int, tail: int) -> tuple:
    """Seeded reachability with the recursive body written scan-first.

    One seed near the end of an ``n``-edge chain reaches only ``tail``
    nodes, so the per-round delta is a single tuple -- but the recursive
    rule opens with ``e(Y, Z)``, and the legacy greedy order (zero bound
    positions everywhere, tie broken textually) rescans the full edge
    relation every round.  The cost order drives each round from the
    delta occurrence and reaches ``e`` through its column index.
    """
    program = parse_program(
        "reach(X, Y) :- seed(X), e(X, Y).\n"
        "reach(X, Z) :- e(Y, Z), reach(X, Y)."
    )
    database = Database.from_dict(
        {"e": [(i, i + 1) for i in range(n)], "seed": [(n - tail,)]}
    )
    return program, database, parse_literal("reach(X, Y)")


_TC_PROGRAM = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def _wide_tc(chains: int, length: int) -> tuple:
    """``chains`` disjoint chains of ``length`` edges, left-linear closure.

    Every one of the ``chains * length * (length + 1) / 2`` derived rows is
    derived exactly once -- the zero-duplication extreme where the
    parent's serial merge dominates the offloaded join work.
    """
    database = Database()
    for chain_index in range(chains):
        base = chain_index * (length + 1)
        for i in range(length):
            database.add_fact("edge", (base + i, base + i + 1))
    return parse_program(_TC_PROGRAM), database, parse_literal("path(X, Y)")


def _random_edges(nodes: int, edges: int, seed: int) -> set:
    """``edges`` distinct non-loop pairs over ``nodes`` nodes (fixed seed)."""
    rng = random.Random(seed)
    pairs: set = set()
    while len(pairs) < edges:
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a != b:
            pairs.add((a, b))
    return pairs


def _random_tc(nodes: int, edges: int, seed: int) -> tuple:
    """Left-linear closure of a sparse random digraph (fixed seed).

    The giant component makes most node pairs reachable along several
    routes, so every derived tuple is produced a handful of times: the
    dominant cost is join-plus-dedup, which the offload runs on the pool.
    """
    database = Database()
    for a, b in _random_edges(nodes, edges, seed):
        database.add_fact("edge", (a, b))
    return parse_program(_TC_PROGRAM), database, parse_literal("path(X, Y)")


def _twin_tc(nodes: int, edges: int) -> tuple:
    """Two independent left-linear closures and a join above them, all in
    one stratum; each closure's seed delta clears the offload threshold."""
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


# ---------------------------------------------------------------------------
# The cell table
# ---------------------------------------------------------------------------

CELLS: List[Cell] = [
    # session: serving must amortize -- repeats >=5x, fact streaming >=2x
    Cell("session", "repeated-query/fig7a-n150/graph",
         lambda: _repeated(sample_a(150), 40), recompute("graph"), serve("graph"),
         "threshold", 5.0),
    Cell("session", "repeated-query/fig7c-n80/graph",
         lambda: _repeated(sample_c(80), 40), recompute("graph"), serve("graph"),
         "threshold", 5.0),
    Cell("session", "repeated-query/genealogy-240/seminaive",
         lambda: _repeated(random_genealogy(240, 6, seed=3), 25),
         recompute("seminaive"), serve("seminaive"), "threshold", 5.0),
    Cell("session", "fact-streaming/fig7a-n120/seminaive",
         lambda: _fig7a_growth(120, batches=15, per_batch=2),
         recompute("seminaive"), serve("seminaive"), "threshold", 2.0),
    Cell("session", "fact-streaming/fig7c-n90/seminaive",
         lambda: _fig7c_growth(90, batches=15, per_batch=1),
         recompute("seminaive"), serve("seminaive"), "threshold", 2.0),
    Cell("session", "fact-streaming/fig7c-n90/magic",
         lambda: _fig7c_growth(90, batches=15, per_batch=1),
         recompute("magic"), serve("magic"), "threshold", 2.0),
    # strata: the stratified families and, as a guard against the
    # pre-stratified runtime, positive ones are tracked; the top-stratum
    # resume must reuse the recursive stratum below it for >=1.5x
    Cell("strata", "stratified-eval/win-not-move/levels7",
         lambda: win_not_move(7, fanout=2), NAIVE, SEMINAIVE, "info", None),
    Cell("strata", "stratified-eval/non-reachability/n120",
         lambda: non_reachability(120, extra_edges=40, seed=1), NAIVE, SEMINAIVE,
         "info", None),
    Cell("strata", "stratified-eval/shortest-paths/n60",
         lambda: shortest_paths(60, extra_edges=20, seed=1), NAIVE, SEMINAIVE,
         "info", None),
    Cell("strata", "resume-vs-scratch/non-reachability-n150/top-stratum-delta",
         lambda: _top_stratum_delta(150), SCRATCH, RESUME, "threshold", 1.5),
    Cell("strata", "positive-guard/fig7a/n200", lambda: sample_a(200),
         NAIVE, SEMINAIVE, "info", None),
    Cell("strata", "positive-guard/fig7c/n120", lambda: sample_c(120),
         NAIVE, SEMINAIVE, "info", None),
    Cell("strata", "positive-guard/tc-chain/n120", lambda: chain(120),
         NAIVE, SEMINAIVE, "info", None),
    # deletion: DRed after retracting <=5% of the EDB as leaf edges must
    # beat scratch by >=2x; random retractions show where DRed degrades
    Cell("deletion", "deletion-resume/tc-tree-d10/leaf-5pct",
         lambda: _tree_retraction(10, 0.05, True), DRED_SCRATCH, DRED_RESUME,
         "threshold", 2.0),
    Cell("deletion", "deletion-resume/tc-tree-d11/leaf-5pct",
         lambda: _tree_retraction(11, 0.05, True), DRED_SCRATCH, DRED_RESUME,
         "threshold", 2.0),
    Cell("deletion", "deletion-resume/tc-tree-d11/leaf-1pct",
         lambda: _tree_retraction(11, 0.01, True), DRED_SCRATCH, DRED_RESUME,
         "threshold", 2.0),
    Cell("deletion", "adversarial-tracking/tc-tree-d10/random-5pct",
         lambda: _tree_retraction(10, 0.05, False), DRED_SCRATCH, DRED_RESUME,
         "info", None),
    # planner: the cost order must win >=2x on adversarially ordered bodies
    # and, its statistics and search amortised by the plan cache, keep
    # >=0.9x on well-ordered ones
    Cell("planner", "adversarial-join-6k/seminaive",
         lambda: _adversarial_join(6000), *LEGACY_COST, "threshold", 2.0),
    Cell("planner", "adversarial-join-12k/seminaive",
         lambda: _adversarial_join(12000), *LEGACY_COST, "threshold", 2.0),
    Cell("planner", "adversarial-reach-6k/seminaive",
         lambda: _adversarial_reach(6000, 120), *LEGACY_COST, "threshold", 2.0),
    Cell("planner", "tc-chain-400/seminaive", lambda: chain(400), *LEGACY_COST,
         "guard", 0.9),
    Cell("planner", "fig7a-600/seminaive", lambda: sample_a(600), *LEGACY_COST,
         "guard", 0.9),
    Cell("planner", "fig7b-160/seminaive", lambda: sample_b(160), *LEGACY_COST,
         "guard", 0.9),
    Cell("planner", "fig7a-300/magic", lambda: sample_a(300), *_planned("magic"),
         "guard", 0.9),
    # parallel: >=1M derived rows, duplicate-heavy, must scale >=2.5x on 4
    # CPUs; shapes the offload leaves alone (right-linear, seed delta below
    # its 4096-row threshold) must cost nothing; disjoint chains (every row
    # derived once) and two offloaded closures plus a join are tracked
    Cell("parallel", "tc-rand-1100x6600/seminaive", lambda: _random_tc(1100, 6600, 11),
         SEQUENTIAL, PARALLEL, "threshold", 2.5),
    Cell("parallel", "tc-rand-1300x5200/seminaive", lambda: _random_tc(1300, 5200, 7),
         SEQUENTIAL, PARALLEL, "threshold", 2.5),
    Cell("parallel", "tc-wide-2000x40/seminaive", lambda: _wide_tc(2000, 40),
         SEQUENTIAL, PARALLEL, "info", None),
    Cell("parallel", "tc-twin-700x4200/seminaive", lambda: _twin_tc(700, 4200),
         SEQUENTIAL, PARALLEL, "info", None),
    Cell("parallel", "tc-chain-600/seminaive", lambda: chain(600),
         SEQUENTIAL, PARALLEL, "guard", 0.9),
    Cell("parallel", "tc-wide-40x40/seminaive", lambda: _wide_tc(40, 40),
         SEQUENTIAL, PARALLEL, "guard", 0.9),
]


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

def _digest(relations: dict) -> str:
    """A hash of ``{name: rows}`` that does not depend on row order."""
    sha = hashlib.sha256()
    for name in sorted(relations):
        sha.update("\n".join([name, *sorted(map(repr, relations[name])), ""]).encode())
    return sha.hexdigest()[:16]


def _timed_run(side: Side, workload: tuple) -> Tuple[float, dict, Counters]:
    counters = Counters()
    action, finish = side.setup(workload, counters)
    started = time.perf_counter()
    result = action()
    seconds = time.perf_counter() - started
    return seconds, finish(result), counters


def measure(family: str, side: str, repeats: int) -> Dict[str, dict]:
    """One pass: the ``side`` ("before" or "after") of every ``family`` cell.

    The first run of a cell sets its run count and supplies its digest and
    work counters.
    """
    results = {}
    for cell in CELLS:
        if cell.family != family:
            continue
        run = cell.before if side == "before" else cell.after
        workload = cell.build()
        with configured(**run.config):
            seconds, relations, counters = _timed_run(run, workload)
            runs = max(repeats, min(MAX_RUNS, int(FLOOR_S / max(seconds, 1e-6)) + 1))
            for _ in range(runs - 1):
                seconds = min(seconds, _timed_run(run, workload)[0])
        results[cell.name] = {
            "seconds": seconds,
            "digest": _digest(relations),
            "counters": counters.as_dict(),
        }
        del workload, relations  # the next cell starts without this one's data
        gc.collect()
    return results


def _pass(family: str, side: str, repeats: int) -> Dict[str, dict]:
    """:func:`measure` in a fresh interpreter."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        f"import run; json.dump(run.measure({family!r}, {side!r}, {repeats}), sys.stdout)"
    )
    return json.loads(subprocess.check_output([sys.executable, "-c", code]))


def _keep_fastest(kept: Dict[str, dict], family: str, results: Dict[str, dict]) -> None:
    for name, result in results.items():
        key = f"{family}/{name}"
        if key not in kept:
            kept[key] = result
            continue
        if result["digest"] != kept[key]["digest"]:
            raise SystemExit(f"{key}: one side computed different results across rounds")
        kept[key]["seconds"] = min(kept[key]["seconds"], result["seconds"])


def gate(
    cells: List[Cell],
    before: Dict[str, dict],
    after: Dict[str, dict],
    cpu_count: int,
    fork: bool,
) -> Tuple[Dict[str, dict], List[str]]:
    """The report rows of ``cells`` and the keys of enforced cells that miss.

    ``before`` and ``after`` map cell keys to measured sides (``seconds``,
    ``digest``, ``counters``).  Threshold and guard cells are enforced,
    except parallel threshold cells on hosts with fewer than 4 CPUs or no
    ``fork``; info cells never gate.  Aborts when a cell's two sides
    computed different results.
    """
    scaling_host = cpu_count >= 4 and fork
    rows: Dict[str, dict] = {}
    misses: List[str] = []
    for cell in cells:
        first, second = before[cell.key], after[cell.key]
        if first["digest"] != second["digest"]:
            raise SystemExit(
                f"{cell.key}: {cell.before.label} and {cell.after.label} "
                "computed different results"
            )
        speedup = first["seconds"] / second["seconds"]
        enforced = cell.kind == "guard" or (
            cell.kind == "threshold" and (cell.family != "parallel" or scaling_host)
        )
        rows[cell.key] = {
            "kind": cell.kind,
            "target": cell.target,
            "enforced": enforced,
            "before": cell.before.label,
            "after": cell.after.label,
            "before_s": round(first["seconds"], 6),
            "after_s": round(second["seconds"], 6),
            "speedup": round(speedup, 3),
            "before_counters": first["counters"],
            "after_counters": second["counters"],
        }
        if enforced and speedup < cell.target:
            misses.append(cell.key)
    return rows, misses


def _commit() -> str:
    """``git describe`` of the checkout the measured ``repro`` comes from."""
    root = Path(repro.__file__).resolve().parents[2]
    try:
        described = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return described.stdout.strip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--family", action="append", choices=FAMILIES,
                        help="measure only this family (repeatable; default: all)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating before/after passes per family")
    parser.add_argument("--repeats", type=int, default=2,
                        help="least number of timed runs per cell and pass")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when an enforced cell misses its target")
    parser.add_argument("--output", default="BENCH.json")
    args = parser.parse_args(argv)

    families = [family for family in FAMILIES if family in (args.family or FAMILIES)]
    commit = _commit()
    before: Dict[str, dict] = {}
    after: Dict[str, dict] = {}
    for family in families:
        for _ in range(args.rounds):
            _keep_fastest(before, family, _pass(family, "before", args.repeats))
            _keep_fastest(after, family, _pass(family, "after", args.repeats))

    cpu_count = os.cpu_count() or 1
    cells = [cell for cell in CELLS if cell.family in families]
    rows, misses = gate(cells, before, after, cpu_count, fork_available())
    report = {
        "meta": {
            "commit": commit,
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "workers": WORKERS,
            "rounds": args.rounds,
            "repeats": args.repeats,
        },
        "cells": rows,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")

    width = max(len(key) for key in rows)
    for key, row in rows.items():
        if row["enforced"]:
            target = f">={row['target']}x"
        else:
            target = "(info)" if row["target"] is None else f"({row['target']}x, not enforced)"
        print(
            f"{key.ljust(width)}  {row['before']} {row['before_s']:.4f}s"
            f"  {row['after']} {row['after_s']:.4f}s  {row['speedup']:.2f}x  {target}"
        )
    if misses:
        print("\nbelow target:", *misses, sep="\n  ")
        return 1 if args.strict else 0
    print("\nevery enforced cell meets its target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
