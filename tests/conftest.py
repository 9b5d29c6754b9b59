"""Shared fixtures for the differential test matrices."""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.config import configured
from repro.engines import runtime

#: A matrix cell that runs the default ``columnar`` mode with every runtime
#: firing sent through the plan's row executor -- the path unbatchable
#: shapes and non-frozen self-feeding plans take.  It must charge exactly
#: what the batch kernel and the interpreted reference evaluation charge.
ROW_FALLBACK = "row-fallback"


def _no_batch(plan, database, derived=None, frozen=False):
    return None


@contextmanager
def _execution_cell(cell):
    if cell == ROW_FALLBACK:
        with mock.patch.object(runtime, "_batch_heads", _no_batch):
            with configured(execution="columnar"):
                yield
        return
    with configured(execution=cell):
        yield


@pytest.fixture(scope="session")
def execution_cell():
    """``execution_cell(cell)`` enters one cell of the execution matrix:
    ``"interpreted"`` (the reference evaluation: substitution-dictionary
    joins, memo-free ``Database.scan`` and ``Database.image``),
    ``"columnar"`` or ``"row-fallback"``."""
    return _execution_cell
