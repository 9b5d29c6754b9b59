"""Reference answers: content-addressed, computed by the naive evaluator.

Answers are checked against :mod:`repro.datalog.semantics` -- the naive
least/perfect-model evaluator -- never against the engines under test.  It
is far too slow to run per op (seconds per model on the larger inputs), so
entries are stored under a key derived from the program text, the sorted
EDB and the query, and computed only when missing:

* ``perfbench/expected/`` holds the committed entries (the default seed's
  checkpoints, every one-shot cell, the churn sessions' base states);
* ``.perfbench/expected/`` at the repository root caches entries computed
  for other seeds (ignored by git).

An entry records the answer count and a digest of the sorted answers, so
the store stays small and an op's answers can be compared by digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.datalog.database import Database
from repro.datalog.literals import Literal
from repro.datalog.rules import Program
from repro.datalog.semantics import answer_against_relation, least_model

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
CACHE_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "expected"


def answer_digest(answers: Iterable[Tuple[object, ...]]) -> str:
    """A process-independent digest of an answer set."""
    lines = sorted(repr(tuple(answer)) for answer in answers)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def content_digest(program: Program, database: Database):
    """A hash of the program text and the sorted EDB; entry keys extend it."""
    digest = hashlib.sha256()
    for rule in sorted(str(rule) for rule in program.rules):
        digest.update(rule.encode("utf-8") + b"\n")
    for predicate in sorted(database.predicates()):
        digest.update(f"#{predicate}\n".encode("utf-8"))
        for line in sorted(repr(row) for row in database.rows(predicate)):
            digest.update(line.encode("utf-8") + b"\n")
    return digest


def entry_key(content, query: Literal) -> str:
    """The content address of ``query`` over a :func:`content_digest`."""
    digest = content.copy()
    digest.update(f"?{query}".encode("utf-8"))
    return digest.hexdigest()


class ReferenceStore:
    """Look up reference entries, computing and caching missing ones.

    ``write_dir`` receives computed entries: the cache directory normally,
    ``perfbench/expected/`` when regenerating the committed set.
    """

    def __init__(self, write_dir: Optional[Path] = None, read_dirs=None):
        self.write_dir = write_dir if write_dir is not None else CACHE_DIR
        self.read_dirs = tuple(read_dirs) if read_dirs is not None else (EXPECTED_DIR, CACHE_DIR)
        self.computed = 0
        self.used: Set[str] = set()

    def _load(self, key: str) -> Optional[dict]:
        for directory in self.read_dirs:
            path = directory / f"{key}.json"
            if path.is_file():
                return json.loads(path.read_text())
        return None

    def entries(
        self, program: Program, database: Database, queries: Iterable[Literal]
    ) -> Dict[str, dict]:
        """Reference entries for each query (by query text) over one EDB state.

        Missing entries share one model computation.
        """
        wanted = {str(query): query for query in queries}
        content = content_digest(program, database)
        found: Dict[str, dict] = {}
        missing = []
        for text, query in wanted.items():
            key = entry_key(content, query)
            self.used.add(key)
            entry = self._load(key)
            if entry is None or self.write_dir == EXPECTED_DIR:
                missing.append((key, text, query))
            else:
                found[text] = entry
        if missing:
            model = least_model(program, database)
            self.write_dir.mkdir(parents=True, exist_ok=True)
            for key, text, query in missing:
                answers = answer_against_relation(model.rows(query.predicate), query)
                entry = {"query": text, "count": len(answers), "digest": answer_digest(answers)}
                # Write then rename, so a concurrent reader never sees half a file.
                scratch = self.write_dir / f".{key}.{os.getpid()}"
                scratch.write_text(json.dumps(entry, sort_keys=True) + "\n")
                os.replace(scratch, self.write_dir / f"{key}.json")
                self.computed += 1
                found[text] = entry
        return found
