"""The benchmark's one command.

Run from the repository root::

    python3 perfbench/run.py                              # every workload, untraced
    python3 perfbench/run.py --workload bulk-fixpoint --seed 3
    python3 perfbench/run.py --workload session-churn --trace 1
    python3 perfbench/run.py --runs 10 --sets 2 --trace 1 --out perfbench/results/SHA.json
    python3 perfbench/run.py --baseline HEAD~1 --runs 10
    python3 perfbench/run.py --compare A.json [B.json]
    python3 perfbench/run.py --regen-expected

Each workload runs in its own subprocess (one client, one thread, a fixed
hash seed, ``REPRO_PARALLELISM`` cleared) against the library in ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is
non-zero when any answer was wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-oneshot", "bulk-fixpoint", "session-read-mostly", "session-churn")
DEFAULT_SECONDS = 15
CHILD_TIMEOUT_S = 170


def declared() -> dict:
    """``BENCHMARK.json``: the run length and the declared metrics."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def revision() -> str:
    try:
        return git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine() -> Dict[str, object]:
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "processor": platform.machine(),
    }


# ---------------------------------------------------------------------------
# One run in a child process
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    """Run one workload in this process and print its record as JSON."""
    sys.path.insert(0, str(Path(args.src).resolve()))
    from perfbench import harness
    from perfbench.reference import EXPECTED_DIR, ReferenceStore
    from perfbench.workloads import WORKLOADS

    store = ReferenceStore(write_dir=EXPECTED_DIR if args.regen_expected else None)
    record = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.quick, store
    )
    print(json.dumps(record))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False,
              src: Path = SRC, regen: bool = False) -> dict:
    """One run of ``workload`` in a fresh interpreter; returns its record."""
    env = {key: value for key, value in os.environ.items() if key != "REPRO_PARALLELISM"}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--src", str(src),
    ]
    if quick:
        command.append("--quick")
    if regen:
        command.append("--regen-expected")
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload}: benchmark process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def specs(trace: bool) -> List[dict]:
    from perfbench.metrics import specs as declared_specs

    return declared_specs(trace)


def print_record(record: dict) -> None:
    flags = " trace" if record["trace"] else ""
    print(f"== {record['workload']} seed={record['seed']}{flags}: "
          f"{record['attempted']} ops attempted, {record['failed']} failed, "
          f"{record['checked']} checked against the reference")
    for kind, row in sorted(record["ops"].items()):
        print(f"   {kind:8s} n={row['n']:6d}  p50 {row['p50_ms']:10.4f} ms  "
              f"p90 {row['p90_ms']:10.4f} ms")
    for spec in specs(record["trace"]):
        value = record["metrics"][spec["name"]]
        if record["trace"] and not value:
            continue
        print(f"   {spec['name']:44s} {value:14.4f} {spec['unit']}")
    for message in record["raised"]:
        print(f"   raised: {message}")


def result_line(records: List[dict]) -> dict:
    """The contract's last line: each metric's median over ``records``.

    Metric names are prefixed with ``<workload>.`` when several ran.
    """
    several = len({record["workload"] for record in records}) > 1
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for record in records:
        prefix = f"{record['workload']}." if several else ""
        for spec in specs(record["trace"]):
            values.setdefault(prefix + spec["name"], []).append(record["metrics"][spec["name"]])
            units[prefix + spec["name"]] = spec["unit"]
    metrics = {
        name: {"value": statistics.median(series), "unit": units[name]}
        for name, series in values.items()
    }
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def set_values(records: List[dict]) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for record in records:
        for name, value in record["metrics"].items():
            values.setdefault(name, []).append(value)
    return values


def print_comparison(base: Dict[str, List[dict]], other: Dict[str, List[dict]],
                     labels=("base", "other")) -> None:
    from perfbench.summary import compare_sets

    declared_metrics = specs(False)
    print(f"{'workload':20s} {'metric':14s} {labels[0]:>30s} {labels[1]:>30s} "
          f"{'change':>8s} {'wins':>5s}  verdict")
    for workload in WORKLOAD_NAMES:
        if workload not in base or workload not in other:
            continue
        values = set_values(base[workload]), set_values(other[workload])
        for row in compare_sets(declared_metrics, *values):
            a, b = row["base"], row["other"]
            print(f"{workload:20s} {row['metric']:14s} "
                  f"{a[1]:10.4f} [{a[0]:8.4f},{a[2]:8.4f}] {b[1]:10.4f} [{b[0]:8.4f},{b[2]:8.4f}] "
                  f"{100 * row['change']:+7.1f}% {row['win_fraction']:5.2f}  {row['verdict']}")


def summarize_sets(sets: Dict[str, Dict[str, List[dict]]]) -> Dict[str, dict]:
    """Per workload and end-to-end metric: each set's quartiles and spread."""
    from perfbench.summary import quartiles, spread

    summary: Dict[str, dict] = {}
    for workload in WORKLOAD_NAMES:
        rows = {}
        for spec in specs(False):
            row = {}
            for name, by_workload in sets.items():
                values = set_values(by_workload.get(workload, [])).get(spec["name"])
                if values:
                    row[name] = {"quartiles": quartiles(values), "spread": spread(values)}
            if row:
                rows[spec["name"]] = row
        if rows:
            summary[workload] = rows
    return summary


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_sets(args, workloads: List[str], sides: List[Tuple[str, Path]]) -> dict:
    """``--runs`` seeds per workload on every side, alternating which goes first."""
    sets: Dict[str, Dict[str, List[dict]]] = {name: {} for name, _ in sides}
    for workload in workloads:
        for offset in range(args.runs):
            for name, src in sides if offset % 2 == 0 else sides[::-1]:
                seed = args.seed + offset
                record = run_child(workload, seed, args.seconds, False, args.quick, src)
                sets[name].setdefault(workload, []).append(record)
                print(f"[{name}] {workload} seed={record['seed']} correct={record['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()),
                      file=sys.stderr)
    return sets


def all_records(sets: Dict[str, Dict[str, List[dict]]]) -> List[dict]:
    return [record for by in sets.values() for records in by.values() for record in records]


def strip(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "reference_keys"}


def write_document(path: Path, args, sets: dict, traced: dict, **extra) -> None:
    """One results file: every run set, their summary and the traced runs."""
    records = all_records(sets) + list(traced.values())
    document = {
        "schema": 1,
        "sha": revision(),
        "machine": machine(),
        "config": records[0]["config"],
        "run_seconds": args.seconds,
        "sets": {
            name: {workload: [strip(r) for r in rs] for workload, rs in by.items()}
            for name, by in sets.items()
        },
        "summary": summarize_sets(sets),
        "trace": {w: strip(r) for w, r in traced.items()},
        **extra,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def finish(records: List[dict]) -> int:
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main_sets(args, workloads: List[str]) -> int:
    names = [chr(ord("A") + index) for index in range(args.sets)]
    sets = run_sets(args, workloads, [(name, SRC) for name in names])
    traced = {}
    if args.trace:
        for workload in workloads:
            traced[workload] = run_child(workload, args.seed, args.seconds, True, args.quick)
            print_record(traced[workload])
    if args.out:
        write_document(Path(args.out), args, sets, traced)
    if len(names) >= 2:
        first, second = names[:2]
        print_comparison(sets[first], sets[second], labels=(f"set {first}", f"set {second}"))
    return finish(all_records(sets) + list(traced.values()))


def main_baseline(args, workloads: List[str]) -> int:
    """Measure ``--baseline REV``'s ``src/`` against the working tree, alternating."""
    sha = git("rev-parse", f"{args.baseline}^{{commit}}")
    SCRATCH.mkdir(exist_ok=True)
    tree = Path(tempfile.mkdtemp(prefix=f"baseline-{sha[:12]}-", dir=SCRATCH))
    try:
        archive = subprocess.run(
            ["git", "archive", sha, "src"], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        sets = run_sets(args, workloads, [("base", tree / "src"), ("head", SRC)])
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    head = revision()
    modified = bool(git("status", "--porcelain", "--", "src"))
    sides = {"base": sha, "head": head, "head_src_modified": modified}
    out = Path(args.out) if args.out else SCRATCH / f"compare-{sha[:12]}-{head[:12]}.json"
    write_document(out, args, sets, {}, sides=sides)
    print_comparison(sets["base"], sets["head"], labels=(sha[:12], "working tree"))
    return finish(all_records(sets))


def main_compare(paths: List[str]) -> int:
    """Two files: the first run set of each.  One file: its first two sets."""
    documents = [json.loads(Path(path).read_text()) for path in paths]
    lists = [[doc["sets"][name] for name in sorted(doc["sets"])] for doc in documents]
    base, other = lists[0][:2] if len(lists) == 1 else (lists[0][0], lists[1][0])
    print_comparison(base, other)
    return 0


def main_regen(args) -> int:
    """Recompute the committed reference entries for the default seed."""
    used = set()
    for workload in WORKLOAD_NAMES:
        for quick in (False, True):
            record = run_child(workload, args.seed, args.seconds, False, quick, regen=True)
            used.update(record["reference_keys"])
    expected = ROOT / "perfbench" / "expected"
    for path in expected.glob("*.json"):
        if path.stem not in used:
            path.unlink()
    print(f"{len(used)} reference entries in {expected.relative_to(ROOT)}", file=sys.stderr)
    return 0


def parse_args(argv: Optional[List[str]] = None):
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", DEFAULT_SECONDS),
                        help="sizes the fixed op count, at the op rate measured when the "
                        "benchmark was defined")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer spans from a traced pass instead")
    parser.add_argument("--quick", action="store_true", help="one block of ops, one set-up")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload, from --seed up")
    parser.add_argument("--sets", type=int, default=1, help="alternating run sets")
    parser.add_argument("--out", help="write every record to this JSON file")
    parser.add_argument("--baseline", metavar="REV",
                        help="compare REV's src/ with the working tree")
    parser.add_argument("--compare", nargs="+", metavar="FILE", help="compare result files")
    parser.add_argument("--regen-expected", action="store_true",
                        help="recompute perfbench/expected/ for the default seed")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--src", default=str(SRC), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # perfbench's modules are imported as a package from the repository
    # root, never as top-level modules from the script's own directory.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    if not (Path(args.src) / "repro" / "__init__.py").is_file():
        print(f"no library sources at {args.src}: run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.compare:
        return main_compare(args.compare)
    if args.regen_expected:
        return main_regen(args)
    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    if args.baseline:
        return main_baseline(args, workloads)
    if args.runs > 1 or args.sets > 1:
        return main_sets(args, workloads)
    trace = bool(args.trace)
    records = [run_child(w, args.seed, args.seconds, trace, args.quick) for w in workloads]
    for record in records:
        print_record(record)
    if args.out:
        untraced = {r["workload"]: [r] for r in records if not r["trace"]}
        traced = {r["workload"]: r for r in records if r["trace"]}
        write_document(Path(args.out), args, {"A": untraced} if untraced else {}, traced)
    return finish(records)


if __name__ == "__main__":
    sys.exit(main())
