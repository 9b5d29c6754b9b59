#!/usr/bin/env python
"""Repo invariant checker: storage encapsulation, no threads, no ``id()``,
no ``global`` statements, no whole-relation ``rows()`` copies in the
engines.

Five rules, checked over the source tree's ASTs:

* **Storage internals stay inside ``repro.storage``.**  The
  :class:`repro.storage.table.IntTable` row map, subset indexes, lag
  watermarks, adjacency caches and column caches (``_rows``, ``_indexes``,
  ``_index_lag``, ``_adjacency``, ``_columns``, ``_colarrays``) are private
  representation: every consumer outside the storage package must go
  through the public accessors (``rows_map``, ``bucket``, ``adjacency``,
  ``built_adjacency``, ``column_codes``, ``column_arrays``,
  ``merge_novel_coded``, ``seed_coded_rows``), so the packed-array kernel
  can swap representations without auditing the whole tree.  Any attribute
  access to a banned name from outside ``src/repro/storage`` fails --
  except through ``self``, so other classes may keep private attributes
  that happen to share a name with their *own* state, as
  :class:`~repro.datalog.database.Database` does.
* **No threads.**  Evaluation runs on the caller's thread and parallelism
  is fork-only (:mod:`repro.parallel`), so ``threading.Thread`` -- as an
  attribute or through ``from threading import Thread`` -- is rejected
  anywhere, the storage package included.  Locks stay allowed: they guard
  process-wide structures that user threads can reach.
* **No object addresses.**  A call of the builtin ``id`` (bare or as
  ``builtins.id``) is rejected anywhere.  A memo or set keyed by an
  address matches whatever object is allocated at that address after the
  first one is freed -- ``Engine.answer`` builds a fresh database overlay
  per call, so a later call can land on an earlier one's address.  Hold
  the object itself, a ``weakref`` to it, or a key that names it (an
  index, a name).
* **No ``global`` statements.**  Evaluation settings live in one
  :class:`repro.config.EvalConfig` per thread, read with
  ``current_config()`` and changed with ``configured()``; a module global
  rebound at run time is shared by every thread and every session in the
  process, so a ``global`` statement is rejected anywhere.
* **No ``rows()`` in the engines.**  ``Database.rows`` freezes a copy of a
  whole relation, and under ``src/repro/engines`` every such call sat on an
  answer, resume or maintenance path.  A call of any method named ``rows``
  there is rejected: answer with ``Database.answers`` (the index bucket of
  the query's constants), count with ``Database.count``, and walk a table's
  rows through its insertion-ordered row view (``table.all_rows()``).

Usage::

    python tools/check_invariants.py            # check src/repro
    python tools/check_invariants.py PATH...    # check specific trees

Exit status 0 when clean, 1 when a violation is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: IntTable storage representation -- see the class's ``__slots__``.
BANNED_ATTRIBUTES = frozenset(
    {
        "_rows",
        "_indexes",
        "_index_lag",
        "_adjacency",
        "_columns",
        "_colarrays",
    }
)

#: The package that owns the representation and may touch it freely.
ALLOWED_PREFIX = ("src", "repro", "storage")

#: The package whose answer, resume and maintenance paths may not copy a
#: whole relation through ``rows()``.
ENGINES_PREFIX = ("src", "repro", "engines")


def _is_self_access(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


def _under(path: Path, prefix: Tuple[str, ...]) -> bool:
    parts = path.parts
    for start in range(len(parts)):
        if parts[start : start + len(prefix)] == prefix:
            return True
    return False


def _is_rows_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rows"
    )


def _is_thread(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "Thread"
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "threading" and any(
            alias.name == "Thread" for alias in node.names
        )
    return False


def _is_id_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "id"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "id"
        and isinstance(func.value, ast.Name)
        and func.value.id == "builtins"
    )


def check_file(path: Path) -> List[Tuple[int, int, str]]:
    """Rule violations in one file as ``(line, col, message)``."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [(0, 0, f"cannot parse: {exc}")]
    storage_owner = _under(path, ALLOWED_PREFIX)
    in_engines = _under(path, ENGINES_PREFIX)
    violations: List[Tuple[int, int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    "`global` statement in repro; evaluation settings live in "
                    "repro.config -- read current_config(), change them with "
                    "configured()",
                )
            )
        elif _is_thread(node):
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    "`threading.Thread` in repro; evaluation runs on the "
                    "caller's thread and parallelism is fork-only",
                )
            )
        elif in_engines and _is_rows_call(node):
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    "`rows()` in repro.engines freezes a copy of a whole "
                    "relation; use Database.answers, Database.count or the "
                    "table's row view",
                )
            )
        elif _is_id_call(node):
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    "`id()` in repro; an address can name a later object once "
                    "the first is freed -- key by the object, a weakref or a name",
                )
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in BANNED_ATTRIBUTES
            and not storage_owner
            and not _is_self_access(node)
        ):
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    f"access to storage-private attribute `{node.attr}` "
                    "outside repro.storage; use the IntTable public API",
                )
            )
    return violations


def check_tree(roots: Iterable[Path]) -> int:
    """Check every ``.py`` under ``roots``; print violations, return count."""
    found = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for line, column, message in check_file(path):
                print(f"{path}:{line}:{column}: {message}")
                found += 1
    return found


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src") / "repro"]
    found = check_tree(roots)
    if found:
        print(f"{found} invariant violation(s)")
        return 1
    print("repo invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
