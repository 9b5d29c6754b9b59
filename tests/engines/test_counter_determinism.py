"""Work counters do not depend on string hashing.

A recursive component is a set of predicate names, and a set of strings
iterates in an order that changes with ``PYTHONHASHSEED``.  When such a
component holds more than one predicate, anything the runtime takes in
set order -- the firing order of the component's rules, the order of the
rows merged into the resume's changed set, the rederive order of DRed --
moves the retrievals and the rounds the engines report.  The script below
runs the mutually recursive ``a``/``b`` program one-shot (seminaive and
magic) and as retract/insert session streams under two hash seeds, each in
its own interpreter, and the two runs must report the same counters.  The
seminaive stream adds a component above ``a``/``b`` whose delta-driven
firings see their own head relation grow, so the order in which the
changed ``a`` rows reach it shows in its retrievals.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import json
import random

from repro.datalog import parse_literal, parse_program
from repro.datalog.database import Database
from repro.engines import run_engine
from repro.instrumentation import Counters
from repro.session import QuerySession

PROGRAM = parse_program('''
a(X, Y) :- e(X, Y).
a(X, Z) :- e(X, Y), b(Y, Z).
b(X, Z) :- f(X, Y), a(Y, Z).
b(X, Y) :- f(X, Y).
''')
QUERY = parse_literal("a(n1, Y)")
LAYERED = parse_program(str(PROGRAM) + '''
c(X, Y) :- a(X, Y).
c(X, Z) :- a(X, Y), c(Y, Z).
''')


def edges(count, size):
    rng = random.Random(7)
    nodes = [f"n{i}" for i in range(count)]
    return {
        name: [(rng.choice(nodes), rng.choice(nodes)) for _ in range(size)]
        for name in ("e", "f")
    }


report = {}
for engine in ("seminaive", "magic"):
    database = Database.from_dict(edges(60, 150))
    result = run_engine(engine, PROGRAM, QUERY, database=database)
    report[engine] = [result.counters.as_dict(), sorted(result.answers)]

streams = (
    ("seminaive", LAYERED, parse_literal("c(n1, Y)"), edges(30, 40)),
    ("magic", PROGRAM, QUERY, edges(60, 150)),
)
for engine, program, query, edb in streams:
    session = QuerySession(program, Database.from_dict(edb), engine=engine)
    stream = [session.query(query).counters.as_dict()]
    for step in range(6):
        batch = {name: rows[4 * step : 4 * step + 4] for name, rows in edb.items()}
        session.retract(batch)
        stream.append(session.query(query, counters=Counters()).counters.as_dict())
        session.insert(batch)
        stream.append(session.query(query, counters=Counters()).counters.as_dict())
    stream.append(session.materialization(engine).counters.as_dict())
    report["session-" + engine] = stream

print(json.dumps(report, sort_keys=True))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_PARALLELISM", None)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout)


def test_counters_are_identical_across_hash_seeds():
    first, second = _run("0"), _run("2")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], key
