"""``python -m repro.lint`` -- the command-line front end of the linter.

Runs the program-level static analysis of
:mod:`repro.datalog.diagnostics` over ``.dl`` files and prints the findings
as compiler-style text or as JSON::

    python -m repro.lint workloads examples            # discover *.dl
    python -m repro.lint --format json program.dl
    python -m repro.lint --strict workloads            # warnings also fail
    python -m repro.lint --codes                       # the error-code table
    python -m repro.lint --jobs 4 workloads            # lint files in parallel
    python -m repro.lint --analyze workloads           # + DL7xx abstract checks
                                                       #   and inferred signatures

``--jobs N`` lints files on ``N`` forked workers (the same pool the
parallel fixpoint runs on, :mod:`repro.parallel`).  Results are collected
in file order, so text and JSON output are byte-identical to a
sequential run; when fork is unavailable the flag silently degrades to
sequential linting.

Directories are searched recursively for ``*.dl`` files; explicit file
arguments are linted regardless of extension.  A file may declare the
queries it is meant to serve with directive comments::

    % query: tc(a, X)

which become the roots of the reachability check (``DL402``) and the
subjects of the binding-mode analysis (``DL501``).  A ``% lint: known p q``
directive names external EDB relations so they are not reported as
undefined (``DL401``).

Exit status: ``0`` when no failing diagnostic was found, ``1`` otherwise,
``2`` on usage errors.  Errors always fail; warnings fail under
``--strict``; hints never fail.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import parallel as _parallel
from .datalog.diagnostics import CODES, Diagnostic, Severity, lint_source
from .datalog.errors import DatalogSyntaxError
from .datalog.parser import parse_query
from .datalog.spans import Span

#: ``% query: tc(a, X)`` -- declare a query the file is meant to serve.
_QUERY_DIRECTIVE = re.compile(r"^\s*%\s*query:\s*(?P<query>.+?)\s*$", re.MULTILINE)
#: ``% lint: known edge node`` -- declare external EDB relation names.
_KNOWN_DIRECTIVE = re.compile(r"^\s*%\s*lint:\s*known\s+(?P<names>.+?)\s*$", re.MULTILINE)


def discover(paths: Sequence[str]) -> List[Path]:
    """The files to lint: explicit files plus ``*.dl`` under directories."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.rglob("*.dl")))
        else:
            found.append(path)
    # de-duplicate while keeping order (a file can be both explicit and
    # discovered through its directory)
    seen = set()
    unique: List[Path] = []
    for path in found:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def lint_file(
    path: Path, analyze: bool = False
) -> Tuple[List[Diagnostic], Optional[str]]:
    """Lint one file; returns (diagnostics, fatal-read-error message)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [], f"cannot read {path}: {exc.strerror or exc}"
    queries = []
    for match in _QUERY_DIRECTIVE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        column = match.start("query") - (text.rfind("\n", 0, match.start("query")) + 1) + 1
        try:
            literal = parse_query(match.group("query"))
        except DatalogSyntaxError as exc:
            return [
                Diagnostic(
                    code=exc.code,
                    severity=Severity.ERROR,
                    message=f"bad query directive: {exc.bare_message}",
                    span=Span.point(line, column),
                )
            ], None
        # Anchor query diagnostics (DL501) at the directive's file position
        # instead of the directive-relative parse span.
        literal.span = Span.point(line, column)
        queries.append(literal)
    known: List[str] = []
    for names in _KNOWN_DIRECTIVE.findall(text):
        known.extend(names.split())
    return (
        lint_source(text, queries=queries, known_predicates=known, analyze=analyze),
        None,
    )


def inferred_signatures(path: Path) -> List[str]:
    """The abstract interpreter's per-predicate signatures for one file.

    Open-world, like the lint checks: predicates named by ``% lint: known``
    directives are assumed non-empty with unknown domains.  Unreadable or
    unparsable files yield no signatures (the lint pass reports them).
    """
    from .datalog.abstract import AbstractAnalysis
    from .datalog.parser import parse_rules
    from .datalog.rules import Program

    try:
        text = path.read_text(encoding="utf-8")
        rules = parse_rules(text)
        program = Program(rules, validate=False)
    except Exception:
        return []
    known: List[str] = []
    for names in _KNOWN_DIRECTIVE.findall(text):
        known.extend(names.split())
    try:
        return AbstractAnalysis.of(program, known=known).signature_report()
    except Exception:
        return []


def _fails(diagnostic: Diagnostic, strict: bool) -> bool:
    if diagnostic.severity is Severity.ERROR:
        return True
    return strict and diagnostic.severity is Severity.WARNING


def _lint_payload(spec, _state=None):
    """One file's report in picklable form: ``(fatal, items, signatures)``.

    ``spec`` is the path string, or ``(path, analyze)``.  ``items`` carries,
    per diagnostic, everything the reporting loop needs -- severity value,
    pre-formatted text line, and the JSON dict -- so the parent process
    never has to reconstruct Diagnostic objects from a worker's result.
    ``signatures`` holds the inferred predicate signatures under
    ``--analyze`` (empty otherwise).  The pool's ``_state`` is unused.
    """
    if isinstance(spec, str):
        path_str, analyze = spec, False
    else:
        path_str, analyze = spec
    path = Path(path_str)
    diagnostics, fatal = lint_file(path, analyze=analyze)
    if fatal is not None:
        return fatal, [], []
    signatures = inferred_signatures(path) if analyze else []
    return (
        None,
        [(d.severity.value, d.format(path_str), d.to_dict()) for d in diagnostics],
        signatures,
    )


_parallel.register_task("lint_file", _lint_payload)


def _collect(files: Sequence[Path], jobs: int, analyze: bool = False):
    """All per-file payloads, in file order, sequentially or on a pool."""
    specs = [(str(path), analyze) for path in files]
    workers = min(jobs, len(specs))
    if workers > 1 and _parallel.fork_available():
        try:
            with _parallel.WorkerPool(workers) as pool:
                return pool.run([("lint_file", spec) for spec in specs])
        except _parallel.WorkerError:
            pass  # fall through to the sequential path
    return [_lint_payload(spec) for spec in specs]


def _print_codes() -> None:
    width = max(len(code) for code in CODES)
    for code, (severity, summary) in sorted(CODES.items()):
        print(f"{code:<{width}}  {severity.value:<7}  {summary}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis for Datalog programs (.dl files).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files to lint, or directories to search for *.dl files",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (errors always fail; hints never do)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run the abstract-interpretation DL7xx checks and print each "
        "file's inferred predicate signatures",
    )
    parser.add_argument(
        "--codes",
        action="store_true",
        help="print the error-code table and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files on N parallel workers (default: 1; output is "
        "identical to a sequential run)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer")

    if args.codes:
        _print_codes()
        return 0
    if not args.paths:
        parser.error("no files or directories given (or use --codes)")

    files = discover(args.paths)
    failed = False
    reports = []
    total = {"error": 0, "warning": 0, "hint": 0}
    for path, (fatal, items, signatures) in zip(
        files, _collect(files, args.jobs, analyze=args.analyze)
    ):
        if fatal is not None:
            failed = True
            if args.format == "text":
                print(f"{path}: error: {fatal}", file=sys.stderr)
            reports.append({"path": str(path), "error": fatal, "diagnostics": []})
            continue
        for severity, line, _payload in items:
            total[severity] += 1
            if severity == "error" or (args.strict and severity == "warning"):
                failed = True
            if args.format == "text":
                print(line)
        if args.analyze and args.format == "text" and signatures:
            print(f"{path}: inferred signatures:")
            for signature in signatures:
                print(f"  {signature}")
        report = {
            "path": str(path),
            "diagnostics": [payload for _severity, _line, payload in items],
        }
        if args.analyze:
            report["signatures"] = signatures
        reports.append(report)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "files": reports,
                    "summary": {**total, "files": len(files), "ok": not failed},
                },
                indent=2,
            )
        )
    elif not failed:
        noise = total["warning"] + total["hint"]
        print(
            f"{len(files)} file(s) clean"
            + (f" ({noise} non-failing finding(s))" if noise else "")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
