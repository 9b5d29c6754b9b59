"""The storage-mode switch: kernel fast paths vs the object-tuple reference.

Mirrors :func:`repro.datalog.plans.set_execution_mode`, and switches two
methods of :class:`~repro.datalog.database.Database`.  In ``"kernel"`` mode
(the default) :meth:`Database.scan` charges repeated bucket retrievals
through the bucket-level charging memo and :meth:`Database.image` runs on
the interned adjacency indexes; in ``"reference"`` mode ``scan`` charges
every retrieval row by row and ``image`` falls back to the historical
per-row object-tuple loop.  Both modes must produce identical answers *and*
identical work counters -- the differential suite in
``tests/storage/test_storage_differential.py`` runs every engine on every
workload family under both modes, and under the interpreted executor in
``reference`` mode, where every retrieval is a memo-free scan, and asserts
exactly that, which is how the "counters measure retrievals, not
representation" invariant is enforced.  The columnar executor's batch
probes (:mod:`repro.storage.columns`) run the same way in both modes;
``tools/check_invariants.py`` keeps every reader of the switch inside the
storage layer.
"""

from __future__ import annotations

from contextlib import contextmanager

MODE_KERNEL = "kernel"
MODE_REFERENCE = "reference"

_mode = MODE_KERNEL


def set_storage_mode(mode: str) -> None:
    """Select the storage execution mode: ``"kernel"`` or ``"reference"``."""
    global _mode
    if mode not in (MODE_KERNEL, MODE_REFERENCE):
        raise ValueError(f"unknown storage mode {mode!r}")
    _mode = mode


def get_storage_mode() -> str:
    """The currently selected storage mode."""
    return _mode


@contextmanager
def storage_mode(mode: str):
    """Context manager temporarily switching the storage mode."""
    previous = _mode
    set_storage_mode(mode)
    try:
        yield
    finally:
        set_storage_mode(previous)
