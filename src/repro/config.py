"""Evaluation settings: one frozen :class:`EvalConfig` per thread.

Every setting that selects *how* a query is evaluated is a field of
:class:`EvalConfig`.  No setting changes an answer; ``execution`` and
``parallelism`` leave every work counter unchanged too, which the
differential suites check cell by cell.

* ``execution`` -- ``"columnar"`` (default) fires plans through the batch
  executor (:meth:`~repro.datalog.plans.JoinPlan.head_batch`);
  ``"interpreted"`` is the reference evaluation, the differential oracle:
  the substitution-dictionary join over the same plans, with
  :meth:`Database.scan <repro.datalog.database.Database.scan>` charging
  every retrieval row by row (no bucket memo) and ``Database.image``
  running its per-row scan loop.
* ``plan`` -- ``"legacy"`` (default) keeps the greedy bound-count join
  order the counter pins hold; ``"cost"`` orders joins, re-plans
  mid-fixpoint and checks strategy choices by :mod:`repro.stats` estimates.
* ``optimize`` -- whether ``Engine.answer`` first rewrites the program with
  :func:`repro.datalog.transform.optimize` (default ``False``).
* ``parallelism`` -- how many cores the fixpoint offload may use; the
  default comes from ``REPRO_PARALLELISM`` (blank, non-integer or below 1
  means 1).

Read the settings with :func:`current_config` and change them for one
block with :func:`configured`.  They live in a
:class:`~contextvars.ContextVar`, so a new thread starts from the defaults,
not from its creator's settings, while a worker process forked by
:class:`repro.parallel.WorkerPool` inherits the settings of the thread that
forked it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

__all__ = ["EvalConfig", "configured", "current_config"]


def _env_parallelism() -> int:
    raw = os.environ.get("REPRO_PARALLELISM", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


#: The allowed values of each string-valued setting, default first.
_CHOICES = {
    "execution": ("columnar", "interpreted"),
    "plan": ("legacy", "cost"),
}


@dataclass(frozen=True)
class EvalConfig:
    """The evaluation settings; see the module docstring for each field."""

    execution: str = "columnar"
    plan: str = "legacy"
    optimize: bool = False
    parallelism: int = field(default_factory=_env_parallelism)

    def __post_init__(self) -> None:
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} mode {value!r}; expected one of {allowed}"
                )
        if not isinstance(self.optimize, bool):
            raise ValueError(f"optimize must be a bool, got {self.optimize!r}")
        if not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ValueError(
                f"parallelism must be a positive integer, got {self.parallelism!r}"
            )


_CONFIG: ContextVar[EvalConfig] = ContextVar("repro_eval_config", default=EvalConfig())

#: The calling thread's :class:`EvalConfig`.  Bound straight to the context
#: variable's getter: the join executors read it once per plan firing.
current_config: Callable[[], EvalConfig] = _CONFIG.get


@contextmanager
def configured(**changes: object) -> Iterator[EvalConfig]:
    """Evaluate the block under the current settings with ``changes`` applied.

    ``changes`` name :class:`EvalConfig` fields; an unknown field raises
    :class:`TypeError` and an invalid value :class:`ValueError`, before the
    block runs.  The previous settings come back on exit, also when the
    block raises.  Yields the settings in force inside the block.
    """
    config = replace(_CONFIG.get(), **changes)
    token = _CONFIG.set(config)
    try:
        yield config
    finally:
        _CONFIG.reset(token)
