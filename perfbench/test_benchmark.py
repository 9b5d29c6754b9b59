"""Smoke test of the benchmark: declared metrics, tracer, reference checks."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import execute, verify
from perfbench.reference import EXPECTED_DIR, ReferenceStore
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, PaperOneshot

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "args, section, workloads",
    [
        ((), "end_to_end", [workload["name"] for workload in DECLARED["workloads"]]),
        (("--workload", "session-churn", "--trace", "1"), "per_layer", [None]),
    ],
)
def test_printed_metrics_are_the_declared_ones(args, section, workloads):
    result = run_benchmark(*args)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    # Several workloads in one run prefix each metric with its workload.
    assert printed == {
        (f"{workload}." if workload else "") + metric["name"]: metric["unit"]
        for workload in workloads
        for metric in DECLARED[section]
    }
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in printed)


def test_declared_workloads_are_the_benchmarks():
    declared = {workload["name"]: workload["why"] for workload in DECLARED["workloads"]}
    assert declared == {name: workload.why for name, workload in WORKLOADS.items()}


def test_tracer_patches_aliases_and_restores_originals():
    from repro.datalog.database import Database
    from repro.engines import runtime, seminaive
    from repro.workloads import chain

    original = runtime.evaluate_stratified
    add_fact = Database.__dict__["add_fact"]
    overlay = Database.__dict__["overlay"]
    program, database, query = chain(5)
    with Tracer() as tracer:
        assert seminaive.evaluate_stratified is runtime.evaluate_stratified is not original
        assert isinstance(Database.__dict__["overlay"], classmethod)
        answers = seminaive.SeminaiveEngine().answer(program, query, database).answers
    assert answers == {(i,) for i in range(1, 6)}
    assert tracer.calls("runtime.evaluate_stratified") == 1
    assert tracer.calls("engines.seminaive.answer") == 1
    assert tracer.calls("storage.add_fact") > 0
    assert seminaive.evaluate_stratified is original
    assert Database.__dict__["add_fact"] is add_fact
    assert Database.__dict__["overlay"] is overlay


def test_tracer_closes_spans_on_exceptions_and_keeps_self_within_inclusive():
    from repro.datalog import parser
    from repro.datalog.errors import DatalogSyntaxError
    from repro.engines import get_engine
    from repro.workloads import sample_c

    program, database, query = sample_c(20)
    with Tracer() as tracer:
        with pytest.raises(DatalogSyntaxError):
            parser.parse_query("sg(a1,")
        before = tracer.roots[0]
        # A span left open by the exception would swallow this call's time.
        get_engine("graph").answer(program, query, database)
    assert tracer.calls("parser.parse_query") == 1
    assert tracer.roots[0] > before
    for span in tracer.spans:
        assert 0 <= tracer.self_ns(span) <= tracer.inclusive_ns(span)


def test_a_corrupted_expected_entry_is_reported(tmp_path):
    workload = PaperOneshot()
    ops = workload.sequence(0, workload.block)
    observed = execute(workload, workload.build(), ops, set(range(len(ops))))
    for path in EXPECTED_DIR.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    store = ReferenceStore(tmp_path, [tmp_path])
    assert not verify(workload, ops, observed, store)

    # sample_a is the only input queried with sg(a, Y).
    victim = next(
        tmp_path / f"{key}.json"
        for key in store.used
        if json.loads((tmp_path / f"{key}.json").read_text())["query"] == "sg(a, Y)"
    )
    entry = json.loads(victim.read_text())
    entry["digest"] = "0" * 64
    victim.write_text(json.dumps(entry))
    failed = verify(workload, ops, observed, ReferenceStore(tmp_path, [tmp_path]))
    assert failed == {index for index, op in enumerate(ops) if op.source == "a200"}
