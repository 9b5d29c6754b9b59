"""The storage mode, derived from the ``execution`` setting.

The reference evaluation (``configured(execution="interpreted")``) also
switches two methods of :class:`~repro.datalog.database.Database` to their
memo-free loops: :meth:`Database.scan` charges every retrieval row by row
without the bucket-level charging memo, and :meth:`Database.image` runs the
per-row scan loop instead of the interned adjacency indexes.  Every other
execution runs the kernel fast paths.  Both must produce identical answers
*and* identical work counters, which
``tests/storage/test_storage_differential.py`` asserts per engine and per
workload family.
"""

from __future__ import annotations

from ..config import current_config


def get_storage_mode() -> str:
    """``"reference"`` under ``execution="interpreted"``, else ``"kernel"``."""
    return "reference" if current_config().execution == "interpreted" else "kernel"
