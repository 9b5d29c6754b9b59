"""Program-fact memoization: merge a program's facts with an EDB once.

Every engine run evaluates over the union of an external database and the
facts embedded in the program text.  Building that union used to happen per
query -- re-interning and re-adding every program fact each time.  This
module memoizes the combined (EDB + program facts) snapshot per ``(program,
database version)`` and hands out O(1) copy-on-write overlays of it, so both
the bare :meth:`repro.engines.base.Engine.answer` path and the session layer
pay the merge once per database version instead of once per query.

The memo for an external database lives *on that database instance*
(``Database._program_facts_memo``), so its lifetime matches the data and a
version bump invalidates it naturally.  Programs evaluated without an
external database are memoized in a small module-level cache keyed by the
(hashable, immutable) :class:`~repro.datalog.rules.Program` itself.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

from ..datalog.database import Database
from ..datalog.rules import Program
from ..instrumentation import Counters

#: Combined snapshots for programs evaluated without an external database.
_PROGRAM_ONLY_CACHE: "OrderedDict[Program, Database]" = OrderedDict()
_CACHE_LIMIT = 64


def program_fingerprint(program: Program) -> str:
    """A stable, printable fingerprint of a program's rule set.

    Order-insensitive (programs equal up to rule order fingerprint equally)
    and stable across processes, unlike ``hash(program)``.  A
    :class:`~repro.session.session.QuerySession` shows it in its repr.
    """
    text = "\n".join(sorted(str(rule) for rule in program.rules))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combined_snapshot(program: Program, database: Optional[Database]) -> Database:
    """The combined (``database`` + ``program`` facts) snapshot, memoized.

    One snapshot per ``(program, database.version)`` -- a database mutation
    invalidates it on the next call through the version bump.  It is shared
    by every caller and must never be written; :func:`combined_database`
    hands out writable overlays of it.
    """
    if database is None:
        snapshot = _PROGRAM_ONLY_CACHE.get(program)
        if snapshot is None:
            snapshot = Database.from_program(program)
            _PROGRAM_ONLY_CACHE[program] = snapshot
            while len(_PROGRAM_ONLY_CACHE) > _CACHE_LIMIT:
                _PROGRAM_ONLY_CACHE.popitem(last=False)
        else:
            _PROGRAM_ONLY_CACHE.move_to_end(program)
        return snapshot

    memo = database._program_facts_memo
    entry = memo.get(program)
    if entry is None or entry[0] != database.version:
        snapshot = Database.overlay(database)
        snapshot.load_program_facts(program)
        memo[program] = (database.version, snapshot)
        while len(memo) > _CACHE_LIMIT:
            memo.pop(next(iter(memo)))
        return snapshot
    return entry[1]


def combined_database(
    program: Program,
    database: Optional[Database],
    counters: Optional[Counters] = None,
) -> Database:
    """A fresh overlay holding ``database``'s relations plus ``program``'s facts.

    The returned database charges retrievals to ``counters`` and may be
    mutated freely (derived relations, magic seeds, ...): writes clone only
    the touched relations, never the memoized :func:`combined_snapshot`
    under it or the caller's database.
    """
    return Database.overlay(combined_snapshot(program, database), counters=counters)


def clear_program_facts_cache() -> None:
    """Drop the module-level program-only snapshots (test isolation helper)."""
    _PROGRAM_ONLY_CACHE.clear()
