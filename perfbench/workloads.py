"""The four benchmark workloads.

Each workload owns three things:

* its **inputs** -- built by the generators of :mod:`repro.workloads` with
  their fixed default generator seeds, so every ``--seed`` measures the same
  data size and shape and run-to-run spread comes from the op order alone;
* a **seeded op sequence** (:meth:`Workload.sequence`) -- a list of
  :class:`Op` records made of whole *blocks*, each block holding the
  workload's exact op mix in a seeded order, so two commits run identical
  work and every run has the same mix;
* how each op is **issued** (:meth:`Workload.call`) -- a zero-argument
  callable around exactly one public call of the library, which the harness
  times and nothing else.

The program under test receives only the generated inputs; the seed never
reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import workloads as gen
from repro.datalog.database import Database
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal
from repro.datalog.rules import Program
from repro.engines import get_engine
from repro.instrumentation import Counters
from repro.session import QuerySession

Rows = Tuple[Tuple[str, tuple], ...]

#: Checkpoint ops verified against the reference evaluator per session run.
CHECKPOINTS = 20


@dataclass(frozen=True)
class Op:
    """One timed public call.

    ``source`` names the input (one-shot) or the session the op runs on;
    ``state`` identifies the EDB state the op sees: two ops with equal
    ``(source, state)`` run over identical extensional data, so queries in
    such a group must return identical answers.
    """

    kind: str  # "query" | "insert" | "retract"
    source: str
    strategy: str = ""  # one-shot strategy name
    query: str = ""  # query text
    form: str = ""  # session query path: "prepared" | "text" | "literal"
    key: object = None  # the prepared query's parameter value
    rows: Rows = ()  # mutation payload, as (predicate, row) pairs
    state: int = 0

    @property
    def group(self) -> Tuple[str, int, str]:
        return (self.source, self.state, self.query)


def session_totals(sessions: Iterable[QuerySession]) -> Dict[str, int]:
    """Materializations built and resumes run, summed over ``sessions``."""
    sessions = list(sessions)
    return {key: sum(s.stats[key] for s in sessions) for key in ("materializations", "resumes")}


def rows_by_predicate(rows: Rows) -> Dict[str, List[tuple]]:
    grouped: Dict[str, List[tuple]] = {}
    for predicate, row in rows:
        grouped.setdefault(predicate, []).append(row)
    return grouped


class Workload:
    """Common shape; subclasses fill in the inputs, the mix and the calls."""

    name = ""
    why = ""
    #: Ops per block; op counts are whole blocks.
    block = 1
    #: Smallest op count giving every op type at least 100 samples.
    min_ops = 100
    #: Ops per second measured at the commit that defined the benchmark;
    #: sizes the fixed op count for a requested ``--seconds``.
    ops_per_second = 1.0

    def op_count(self, seconds: float, quick: bool = False) -> int:
        if quick:
            return self.block
        wanted = max(self.min_ops, int(seconds * self.ops_per_second))
        return -(-wanted // self.block) * self.block

    def sequence(self, seed: int, count: int) -> List[Op]:
        raise NotImplementedError

    def build(self) -> object:
        """Inputs, sessions, first materializations and one warm-up pass."""
        raise NotImplementedError

    def call(self, state, op: Op) -> Tuple[Callable[[], object], Optional[Counters]]:
        raise NotImplementedError

    def base_inputs(self) -> Dict[str, Tuple[Program, Database]]:
        """Fresh plain ``(program, EDB)`` per source, for reference replay."""
        raise NotImplementedError

    def checkpoints(self, ops: Sequence[Op], seed: int) -> List[int]:
        raise NotImplementedError

    def session_stats(self, state) -> Dict[str, int]:
        return session_totals(())


# ---------------------------------------------------------------------------
# One-shot workloads: Engine.answer over (input x strategy) cells
# ---------------------------------------------------------------------------


class OneShot(Workload):
    #: input name -> (generator, query text overriding the generator's or None)
    INPUTS: Dict[str, Tuple[Callable[[], tuple], Optional[str]]] = {}
    STRATEGIES: Tuple[str, ...] = ()

    def cells(self) -> List[Tuple[str, str]]:
        return [(source, strategy) for source in self.INPUTS for strategy in self.STRATEGIES]

    def _inputs(self) -> Dict[str, Tuple[Program, Database, Literal]]:
        built = {}
        for source, (make, query_text) in self.INPUTS.items():
            program, database, query = make()
            if query_text is not None:
                query = parse_literal(query_text)
            built[source] = (program, database, query)
        return built

    def sequence(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        queries = {source: str(query) for source, (_, _, query) in self._inputs().items()}
        ops: List[Op] = []
        while len(ops) < count:
            block = self.cells()
            rng.shuffle(block)
            ops.extend(
                Op("query", source, strategy=strategy, query=queries[source])
                for source, strategy in block
            )
        return ops[:count]

    def build(self):
        inputs = self._inputs()
        engines = {name: get_engine(name) for name in self.STRATEGIES}
        for source, strategy in self.cells():
            program, database, query = inputs[source]
            engine = engines[strategy]
            if not engine.applicable(program, query):
                raise RuntimeError(f"{strategy} is not applicable to {source}")
            engine.answer(program, query, database)
        return inputs, engines

    def call(self, state, op):
        inputs, engines = state
        program, database, query = inputs[op.source]
        engine = engines[op.strategy]
        counters = Counters()
        return (lambda: engine.answer(program, query, database, counters)), counters

    def base_inputs(self):
        return {source: built[:2] for source, built in self._inputs().items()}

    def checkpoints(self, ops, seed):
        return list(range(len(ops)))


class PaperOneshot(OneShot):
    name = "paper-oneshot"
    why = (
        "the paper's strategy comparison on its own small samples: per-call front end "
        "and strategy traversal dominate, bulk joins are minor"
    )
    INPUTS = {
        "a200": (lambda: gen.sample_a(200), None),
        "b120": (lambda: gen.sample_b(120), None),
        "c200": (lambda: gen.sample_c(200), None),
        "cyclic7x11": (lambda: gen.sample_cyclic(7, 11), None),
        "genealogy240": (lambda: gen.random_genealogy(240, 6), None),
    }
    STRATEGIES = (
        "graph",
        "counting",
        "reverse-counting",
        "henschen-naqvi",
        "magic",
        "topdown",
        "seminaive",
    )
    #: These return a bounded truncation on cyclic data by design (3 of the
    #: 11 answers), so they are not part of the cyclic sample's cells.
    #: Top-down, which is not one of the paper's strategies, is left out
    #: there too: with an even number of equally frequent cells the median
    #: falls on the boundary between two cells' latencies and jumps between
    #: them from run to run; with 31 cells it is the middle cell's median.
    CYCLIC_EXCLUDED = frozenset({"counting", "reverse-counting", "henschen-naqvi", "topdown"})
    block = 31
    min_ops = 124
    ops_per_second = 40.0

    def cells(self):
        return [
            (source, strategy)
            for source, strategy in super().cells()
            if not (source == "cyclic7x11" and strategy in self.CYCLIC_EXCLUDED)
        ]


class BulkFixpoint(OneShot):
    name = "bulk-fixpoint"
    why = (
        "seminaive fixpoints on mid-size inputs: join execution and per-row storage "
        "inserts dominate, the front end is under 1%"
    )
    INPUTS = {
        "chain250": (lambda: gen.chain(250), None),
        "tree10": (lambda: gen.binary_tree(10), None),
        "graph150x500": (lambda: gen.random_graph(150, 500), None),
        "b240": (lambda: gen.sample_b(240), None),
        "genealogy600": (lambda: gen.random_genealogy(600, 7), "sg(X, Y)"),
        "win7": (lambda: gen.win_not_move(7), None),
        "nonreach50": (lambda: gen.non_reachability(50, 10), None),
        "paths60": (lambda: gen.shortest_paths(60), None),
    }
    STRATEGIES = ("seminaive",)
    block = 8
    min_ops = 104
    ops_per_second = 5.0


# ---------------------------------------------------------------------------
# Session workloads: one QuerySession (or three) under a seeded op stream
# ---------------------------------------------------------------------------


class SessionReadMostly(Workload):
    name = "session-read-mostly"
    why = (
        "read-mostly serving from one auto-selecting session: demand caches, per-query "
        "engine selection and query parsing dominate; the 90/6/4 read/scan/insert mix is "
        "chosen, not observed traffic"
    )
    PEOPLE = 800
    DEPTH = 8
    #: The key skew, the mix and the prepared/text split are chosen, not
    #: taken from observed traffic.  The insert is one new person's
    #: up/down/flat legs, the batch shape of the fact-streaming scenarios of
    #: benchmarks/bench_session_incremental.py.
    ZIPF_S = 1.1
    #: One block: 45 prepared + 45 query-string bound queries, 6 unbound
    #: queries (a model lookup) and 4 inserts of a new person.
    MIX = (("prepared", 45), ("text", 45), ("unbound", 6), ("insert", 4))
    block = 100
    min_ops = 2500
    ops_per_second = 265.0

    def _genealogy(self):
        return gen.random_genealogy(self.PEOPLE, self.DEPTH)

    def _people(self) -> List[str]:
        # random_genealogy names person i "p<i>" and puts it in generation
        # i % depth; the popularity ranking follows that order.
        _, database, _ = self._genealogy()
        people = [f"p{i}" for i in range(self.PEOPLE)]
        if {row[0] for row in database.rows("flat")} != set(people):
            raise RuntimeError("random_genealogy no longer names people p<i>")
        return people

    def sequence(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        people = self._people()
        generations = [people[level :: self.DEPTH] for level in range(self.DEPTH)]
        weights = list(accumulate(1.0 / rank**self.ZIPF_S for rank in range(1, len(people) + 1)))
        kinds = [kind for kind, share in self.MIX for _ in range(share)]
        ops: List[Op] = []
        state = 0
        while len(ops) < count:
            block = list(kinds)
            rng.shuffle(block)
            for kind in block:
                if kind == "insert":
                    person = f"n{state}"
                    level = rng.randrange(self.DEPTH - 1)
                    parents = rng.sample(generations[level + 1], rng.randint(1, 2))
                    rows: Rows = tuple(("up", (person, parent)) for parent in parents)
                    rows += tuple(("down", (parent, person)) for parent in parents)
                    rows += (("flat", (person, rng.choice(generations[level]))),)
                    state += 1
                    ops.append(Op("insert", "genealogy", rows=rows, state=state))
                elif kind == "unbound":
                    ops.append(
                        Op("query", "genealogy", query="sg(X, Y)", form="literal", state=state)
                    )
                else:
                    person = rng.choices(people, cum_weights=weights)[0]
                    query = f"sg({person}, Y)"
                    ops.append(
                        Op("query", "genealogy", query=query, form=kind, key=person, state=state)
                    )
        return ops[:count]

    def build(self):
        program, database, _ = self._genealogy()
        session = QuerySession(program, database)
        prepared = session.prepare("sg(X, Y)", params=("X",))
        unbound = parse_literal("sg(X, Y)")
        prepared("p0")
        session.query("sg(p1, Y)")
        session.query(unbound)
        return session, prepared, unbound

    def call(self, state, op):
        session, prepared, unbound = state
        if op.kind == "insert":
            facts = rows_by_predicate(op.rows)
            return (lambda: session.insert(facts)), None
        counters = Counters()
        if op.form == "prepared":
            key = op.key
            return (lambda: prepared(key, counters=counters)), counters
        text = op.query if op.form == "text" else unbound
        return (lambda: session.query(text, counters=counters)), counters

    def base_inputs(self):
        program, database, _ = self._genealogy()
        return {"genealogy": (program, database)}

    def checkpoints(self, ops, seed):
        # Whole EDB states are sampled, up to ten queries each, so the
        # reference evaluator builds one model per sampled state.
        rng = random.Random(f"{self.name}:{seed}:checkpoints")
        by_state: Dict[int, List[int]] = {}
        for index, op in enumerate(ops):
            if op.kind == "query":
                by_state.setdefault(op.state, []).append(index)
        states = sorted(by_state)
        rng.shuffle(states)
        chosen: List[int] = []
        for state in states:
            if len(chosen) >= CHECKPOINTS:
                break
            queries = by_state[state]
            chosen.extend(rng.sample(queries, min(10, len(queries))))
        return sorted(chosen)

    def session_stats(self, state):
        return session_totals(state[:1])


class SessionChurn(Workload):
    name = "session-churn"
    why = (
        "write-heavy maintenance: each step retracts 4 rows, queries, re-inserts them and "
        "queries, so DRed and stratum restarts dominate; step shares and batch size are "
        "chosen, not observed"
    )
    #: session -> (generator, pinned strategy, mutable predicates, steps per block).
    #: A step is the retract / query / re-insert / query cycle of
    #: examples/incremental_sessions.py; the step shares and the batch size
    #: are chosen, not taken from observed traffic.
    SESSIONS = {
        "tree": (lambda: gen.binary_tree(10), "seminaive", ("edge",), 12),
        "genealogy": (lambda: gen.random_genealogy(400, 7), "magic", ("up", "down", "flat"), 5),
        "nonreach": (lambda: gen.non_reachability(50, 10), "seminaive", ("edge",), 3),
    }
    #: Checkpointed steps per session (both queries of a step are verified).
    #: non_reachability's reference model costs seconds, so it gets one.
    CHECKED_STEPS = {"tree": 6, "genealogy": 3, "nonreach": 1}
    BATCH = 4
    block = 80  # 20 steps of 4 ops
    min_ops = 400
    ops_per_second = 215.0

    def _mutable_rows(self, source: str) -> List[Tuple[str, tuple]]:
        make, _, predicates, _ = self.SESSIONS[source]
        _, database, _ = make()
        return [
            (predicate, row)
            for predicate in predicates
            for row in sorted(database.rows(predicate), key=repr)
        ]

    def sequence(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        candidates = {source: self._mutable_rows(source) for source in self.SESSIONS}
        queries = {source: str(make()[2]) for source, (make, _, _, _) in self.SESSIONS.items()}
        steps = [source for source, (_, _, _, share) in self.SESSIONS.items() for _ in range(share)]
        # Batches walk a seeded permutation of each session's rows, so a run
        # retracts every row about equally often.  Drawn independently, the
        # few rows whose retraction invalidates half a closure (the edges
        # near the tree's root) would come up a different number of times
        # in every run.
        unused: Dict[str, List[Tuple[str, tuple]]] = {source: [] for source in self.SESSIONS}
        ops: List[Op] = []
        step = 0
        while len(ops) < count:
            block = list(steps)
            rng.shuffle(block)
            for source in block:
                step += 1
                if len(unused[source]) < self.BATCH:
                    unused[source] = list(candidates[source])
                    rng.shuffle(unused[source])
                rows = tuple(unused[source][-self.BATCH :])
                del unused[source][-self.BATCH :]
                query = queries[source]
                ops.append(Op("retract", source, rows=rows, state=step))
                ops.append(Op("query", source, query=query, form="literal", state=step))
                ops.append(Op("insert", source, rows=rows))
                ops.append(Op("query", source, query=query, form="literal"))
        return ops[:count]

    def build(self):
        sessions = {}
        for source, (make, strategy, _, _) in self.SESSIONS.items():
            program, database, query = make()
            session = QuerySession(program, database, engine=strategy)
            session.query(query)
            warm = rows_by_predicate(tuple(self._mutable_rows(source)[: self.BATCH]))
            session.retract(warm)
            session.query(query)
            session.insert(warm)
            session.query(query)
            sessions[source] = (session, query)
        return sessions

    def call(self, state, op):
        session, query = state[op.source]
        if op.kind == "query":
            counters = Counters()
            return (lambda: session.query(query, counters=counters)), counters
        facts = rows_by_predicate(op.rows)
        if op.kind == "retract":
            return (lambda: session.retract(facts)), None
        return (lambda: session.insert(facts)), None

    def base_inputs(self):
        return {source: make()[:2] for source, (make, _, _, _) in self.SESSIONS.items()}

    def checkpoints(self, ops, seed):
        rng = random.Random(f"{self.name}:{seed}:checkpoints")
        steps: Dict[str, List[int]] = {}
        for index, op in enumerate(ops):
            if op.kind == "retract" and index + 3 < len(ops):
                steps.setdefault(op.source, []).append(index)
        chosen: List[int] = []
        for source, quota in self.CHECKED_STEPS.items():
            starts = steps.get(source, [])
            for start in rng.sample(starts, min(quota, len(starts))):
                chosen.extend((start + 1, start + 3))
        return sorted(chosen)

    def session_stats(self, state):
        return session_totals(session for session, _ in state.values())


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperOneshot(), BulkFixpoint(), SessionReadMostly(), SessionChurn())
}
