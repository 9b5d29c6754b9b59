"""The shared interned storage kernel.

This package is the single storage layer under both halves of the
reproduction: the datalog side (:mod:`repro.datalog.database` stores every
relation in an :class:`~repro.storage.table.IntTable`) and the
relational-algebra side (:class:`repro.relalg.relation.BinaryRelation` is an
immutable view over a :class:`~repro.storage.pairs.PairStore`).  Both speak
the same dense integer codes handed out by the process-wide
:class:`~repro.storage.interner.Interner`, so moving tuples between the
layers never copies or re-hashes constants.

Layer map::

    interner.py   constants <-> dense int codes (process-wide bijection)
    table.py      n-ary interned row tables: subset + adjacency indexes, COW
    pairs.py      binary relations as shared successor indexes + builders
    columns.py    batch probes for the columnar join executor: column
                  extraction, charging and silent index probes
    runtime.py    the storage mode derived from the execution setting:
                  the reference evaluation runs Database.scan and
                  Database.image memo-free

The work counters of :mod:`repro.instrumentation` measure *retrievals*, not
representation: every fast path in this kernel charges exactly the rows the
memo-free reference evaluation (``configured(execution="interpreted")``)
charges, which the differential suite
(``tests/storage/test_storage_differential.py``) asserts per engine and per
workload family.
"""

from .interner import Interner, IntRow, global_interner
from .pairs import EMPTY_STORE, IntPair, PairBuilder, PairStore
from .table import FULL_SCAN, BucketToken, IntTable

__all__ = [
    "BucketToken",
    "EMPTY_STORE",
    "FULL_SCAN",
    "IntPair",
    "IntRow",
    "IntTable",
    "Interner",
    "PairBuilder",
    "PairStore",
    "global_interner",
]
