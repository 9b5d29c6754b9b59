"""Process parallelism: a fork worker pool.

Evaluation runs on the caller's thread.  Parallelism is fork-only, and it
has two users: the whole-fixpoint offload of :mod:`repro.engines.runtime`
and parallel corpus linting in :mod:`repro.lint`.  This module holds what
they share:

:func:`parallelism`
    How many cores evaluation may use: the ``parallelism`` field of the
    calling thread's :class:`repro.config.EvalConfig`.  The default (``1``,
    overridable through the ``REPRO_PARALLELISM`` environment variable)
    keeps every evaluation on the sequential path, which stays the
    differential oracle and keeps the paper-sample counter pins
    bit-identical.  With ``n > 1`` a component whose delta rounds are one
    left-linear plan with an invariant column, over a seed delta of at
    least 4096 rows, runs its fixpoint on ``n`` forked workers; answers and
    :class:`~repro.instrumentation.Counters` are identical either way (see
    ``tests/engines/test_parallel_differential``).

:class:`WorkerPool`
    A pool of fork-spawned worker processes talking over pipes.  Fork is
    essential, not incidental: workers inherit the parent's interner,
    databases and compiled plans as copy-on-write memory -- and the forking
    thread's settings -- so a task only has to name them plus the dense
    ``array('q')`` code columns of the rows it should process.  Workers are
    probe-only -- they never write back into inherited state that the
    parent reads -- and results are collected in task order, so worker
    timing never leaks into observable output.

On platforms without ``fork`` (Windows, some macOS configurations), or when
forking fails, the pool raises :class:`WorkerError` and every caller falls
back to the sequential path; no functionality is lost, only the speedup.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import traceback
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from .config import current_config

__all__ = [
    "parallelism",
    "fork_available",
    "register_task",
    "WorkerPool",
    "WorkerError",
]


def parallelism() -> int:
    """The calling thread's worker count (``1`` means sequential evaluation)."""
    return current_config().parallelism


def fork_available() -> bool:
    """Whether fork-based worker pools can be used on this platform."""
    return hasattr(os, "fork") and "fork" in multiprocessing.get_all_start_methods()


# -- task registry ----------------------------------------------------------
#
# Handlers are registered at import time by the modules that own them (the
# runtime registers the fixpoint task, the linter registers the lint task).
# Because workers are forked *after* those imports, children inherit the
# registry -- nothing is pickled except the per-task payload.

_HANDLERS: Dict[str, Callable[[Any, Any], Any]] = {}


def register_task(kind: str, handler: Callable[[Any, Any], Any]) -> None:
    """Register ``handler`` for tasks of ``kind`` (parent-side, pre-fork).

    Workers call ``handler(payload, state)``, where ``state`` is the object
    the pool was forked with (see :class:`WorkerPool`).
    """
    _HANDLERS[kind] = handler


class WorkerError(RuntimeError):
    """The pool could not fork, or a task failed; carries the reason.

    A failed task carries the remote traceback text.
    """


def _worker_main(conn: multiprocessing.connection.Connection, state: Any) -> None:
    handlers = _HANDLERS
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        kind, payload = task
        try:
            handler = handlers[kind]
            result = handler(payload, state)
        except BaseException:  # report, keep serving
            conn.send((False, f"task {kind!r} failed:\n{traceback.format_exc()}"))
            continue
        conn.send((True, result))
    conn.close()


class WorkerPool:
    """A pool of forked, probe-only worker processes.

    Parameters
    ----------
    workers:
        Number of child processes to fork.
    state:
        Opaque object every task handler receives as its second argument.
        It reaches the children through fork, never pickled, so the parent
        must keep whatever invariants the handlers rely on (e.g. "these
        relations are frozen") for the pool's lifetime.

    Raises :class:`WorkerError` when fork is unavailable or a worker cannot
    be started; the workers already started are shut down and reaped first.
    """

    def __init__(self, workers: int, state: Any = None) -> None:
        if not fork_available():
            raise WorkerError("fork start method unavailable on this platform")
        self.workers = workers
        self._conns: List[multiprocessing.connection.Connection] = []
        self._procs: List[BaseProcess] = []
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(workers):
                parent_conn, child_conn = context.Pipe()
                self._conns.append(parent_conn)
                proc = context.Process(
                    target=_worker_main, args=(child_conn, state), daemon=True
                )
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self._procs.append(proc)
        except OSError as exc:
            started = len(self._procs)
            self.close()
            raise WorkerError(
                f"could not start worker {started + 1} of {workers}"
            ) from exc

    def run(self, tasks: Sequence[Tuple[str, Any]]) -> List[Any]:
        """Run ``tasks`` across the pool; results come back in task order.

        Each worker has at most one task in flight (send one, await its
        result, send the next), which keeps the pipes from filling up on
        either side regardless of result sizes.  A failed task raises
        :class:`WorkerError` with the remote traceback after the in-flight
        tasks have drained, so the pool stays usable.
        """
        if not tasks:
            return []
        conns = self._conns
        results: List[Any] = [None] * len(tasks)
        inflight: Dict[multiprocessing.connection.Connection, int] = {}
        failure: Optional[str] = None
        next_task = 0
        for conn in conns:
            if next_task >= len(tasks):
                break
            conn.send(tasks[next_task])
            inflight[conn] = next_task
            next_task += 1
        while inflight:
            for ready in multiprocessing.connection.wait(list(inflight)):
                conn = cast(multiprocessing.connection.Connection, ready)
                index = inflight.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError) as exc:
                    failure = f"worker died while running task {index}: {exc!r}"
                    continue
                if ok:
                    results[index] = value
                else:
                    failure = failure or value
                if next_task < len(tasks) and failure is None:
                    conn.send(tasks[next_task])
                    inflight[conn] = next_task
                    next_task += 1
        if failure is not None:
            raise WorkerError(failure)
        return results

    def close(self) -> None:
        """Shut the workers down and reap them."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
