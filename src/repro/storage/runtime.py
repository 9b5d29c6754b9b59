"""The storage setting: kernel fast paths vs the object-tuple reference.

The ``storage`` field of :class:`repro.config.EvalConfig` switches two
methods of :class:`~repro.datalog.database.Database`.  Under ``"kernel"``
(the default) :meth:`Database.scan` charges repeated bucket retrievals
through the bucket-level charging memo and :meth:`Database.image` runs on
the interned adjacency indexes; under ``"reference"`` ``scan`` charges
every retrieval row by row and ``image`` falls back to the historical
per-row object-tuple loop.  Both must produce identical answers *and*
identical work counters -- the differential suite in
``tests/storage/test_storage_differential.py`` runs every engine on every
workload family under both, and under the interpreted executor with
``reference`` storage, where every retrieval is a memo-free scan, and
asserts exactly that, which is how the "counters measure retrievals, not
representation" invariant is enforced.  The columnar executor's batch
probes (:mod:`repro.storage.columns`) run the same way under both;
``tools/check_invariants.py`` keeps every reader of the setting inside the
storage layer.
"""

from __future__ import annotations

from ..config import current_config


def get_storage_mode() -> str:
    """The calling thread's ``storage`` setting: ``"kernel"`` or ``"reference"``."""
    return current_config().storage
