"""The gate arithmetic and CLI of ``benchmarks/run.py``, fed made-up timings."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "benchmark_run", Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
)
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


def _side(seconds, digest="same"):
    return {"seconds": seconds, "digest": digest, "counters": {"iterations": 1}}


def _timings(speedup_of):
    """Before/after sides where each cell's speedup is ``speedup_of(cell)``."""
    before = {cell.key: _side(speedup_of(cell)) for cell in run.CELLS}
    after = {cell.key: _side(1.0) for cell in run.CELLS}
    return before, after


def _just_below(cell):
    return 0.5 if cell.target is None else cell.target * 0.95


def test_cell_table_shape():
    families = [cell.family for cell in run.CELLS]
    assert {family: families.count(family) for family in run.FAMILIES} == {
        "session": 6, "strata": 7, "deletion": 4, "planner": 7, "parallel": 6
    }
    assert len({cell.key for cell in run.CELLS}) == len(run.CELLS)
    for cell in run.CELLS:
        assert (cell.target is None) == (cell.kind == "info"), cell.key


def test_threshold_and_guard_misses_are_reported():
    before, after = _timings(_just_below)
    rows, misses = run.gate(run.CELLS, before, after, cpu_count=4, fork=True)
    gated = [cell.key for cell in run.CELLS if cell.kind != "info"]
    assert misses == gated
    assert all(rows[key]["enforced"] for key in gated)
    row = rows["deletion/deletion-resume/tc-tree-d10/leaf-5pct"]
    assert (row["before"], row["after"]) == ("scratch", "resume")
    assert row["speedup"] == 1.9 and row["target"] == 2.0
    assert row["before_counters"] == row["after_counters"] == {"iterations": 1}


def test_cells_at_their_targets_pass():
    before, after = _timings(lambda cell: cell.target or 1.0)
    _rows, misses = run.gate(run.CELLS, before, after, cpu_count=4, fork=True)
    assert misses == []


def test_info_cells_never_gate():
    before, after = _timings(lambda cell: 0.01)
    rows, misses = run.gate(run.CELLS, before, after, cpu_count=4, fork=True)
    info = [key for key, row in rows.items() if row["kind"] == "info"]
    assert info and not set(info) & set(misses)
    assert all(not rows[key]["enforced"] and rows[key]["target"] is None for key in info)


@pytest.mark.parametrize("cpu_count,fork", [(2, True), (8, False)])
def test_parallel_threshold_cells_need_four_cpus_and_fork(cpu_count, fork):
    before, after = _timings(_just_below)
    rows, misses = run.gate(run.CELLS, before, after, cpu_count=cpu_count, fork=fork)
    scaling = [
        cell.key for cell in run.CELLS
        if cell.family == "parallel" and cell.kind == "threshold"
    ]
    assert scaling
    for key in scaling:
        assert not rows[key]["enforced"] and key not in misses
    assert "parallel/tc-chain-600/seminaive" in misses
    assert "planner/adversarial-join-6k/seminaive" in misses


def test_a_digest_mismatch_aborts():
    before, after = _timings(lambda cell: 3.0)
    key = "planner/fig7b-160/seminaive"
    after[key] = _side(0.5, digest="other")
    with pytest.raises(SystemExit, match="fig7b-160"):
        run.gate(run.CELLS, before, after, cpu_count=2, fork=True)


def _fake_passes(monkeypatch, after_seconds, calls):
    def fake_pass(family, side, repeats):
        calls.append((family, side))
        return {
            cell.name: _side(1.0 if side == "before" else after_seconds)
            for cell in run.CELLS
            if cell.family == family
        }

    monkeypatch.setattr(run, "_pass", fake_pass)


def test_strict_turns_a_miss_into_exit_status_1(tmp_path, monkeypatch):
    calls = []
    _fake_passes(monkeypatch, after_seconds=2.0, calls=calls)
    output = tmp_path / "BENCH.json"
    argv = ["--family", "planner", "--rounds", "2", "--output", str(output)]
    assert run.main(argv) == 0
    assert run.main(argv + ["--strict"]) == 1
    assert calls == [("planner", "before"), ("planner", "after")] * 4
    report = json.loads(output.read_text())
    assert set(report["meta"]) == {
        "commit", "python", "cpu_count", "workers", "rounds", "repeats"
    }
    assert all(key.startswith("planner/") for key in report["cells"])
    assert report["cells"]["planner/fig7a-300/magic"]["speedup"] == 0.5


def test_strict_passes_when_every_enforced_cell_meets_its_target(tmp_path, monkeypatch):
    _fake_passes(monkeypatch, after_seconds=0.1, calls=[])
    output = tmp_path / "BENCH-session.json"
    argv = ["--family", "session", "--strict", "--output", str(output)]
    assert run.main(argv) == 0
