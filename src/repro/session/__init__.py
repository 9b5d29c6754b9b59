"""The session layer: versioned databases served by cached materializations.

Everything below this package evaluates one query at a time; everything
about *serving many queries over a slowly-growing database* lives here:

* :func:`~repro.session.facts.combined_database` -- the (program facts +
  EDB) merge memoized per database version, reused by the bare
  ``Engine.answer`` path;
* :class:`~repro.session.session.QuerySession` -- prepared/parameterized
  queries, a materialization cache holding one materialization per
  strategy, automatic incremental refresh on insert, and strategy
  auto-selection via :func:`~repro.session.session.select_engine`.

See :mod:`repro.engines.base` for the materialize / answer / resume engine
contract this layer drives.
"""

from .facts import clear_program_facts_cache, combined_database, program_fingerprint
from .session import PreparedQuery, QuerySession, select_engine

__all__ = [
    "PreparedQuery",
    "QuerySession",
    "clear_program_facts_cache",
    "combined_database",
    "program_fingerprint",
    "select_engine",
]
