"""Shared helpers for the pytest-benchmark experiments (``bench_*.py``).

Every benchmark measures two things:

* wall-clock time via the ``benchmark`` fixture of pytest-benchmark (the
  numbers pytest prints); and
* machine-independent *work counters* (facts retrieved, nodes generated, rule
  firings) over a small parameter sweep, from which a growth exponent is
  fitted and attached to ``benchmark.extra_info`` so that the paper's n vs
  n^2 comparisons can be read off the report.

The paper reports asymptotic classes, not absolute times, so the assertions
in these modules check *shape* (fitted exponents, relative ordering of
strategies), never absolute numbers.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.instrumentation import Counters


def measure_work(engine: str, workload, check: bool = True) -> Counters:
    """Run ``engine`` on ``workload`` and return its work counters.

    ``workload`` is a ``(program, database, query)`` triple; the database is
    copied so repeated measurements do not interfere.  When ``check`` is true
    the answers are verified against the least model.
    """
    program, database, query = workload
    counters = Counters()
    fresh = database.copy()
    fresh.reset_instrumentation(counters)
    result = run_engine(engine, program, query, fresh, counters)
    if check:
        expected = answer_query(program, query, database)
        assert result.answers == expected, f"{engine} produced a wrong answer"
    return counters


def work_sweep(
    engine: str,
    generator: Callable[[int], tuple],
    sizes: Sequence[int],
    metric: str = "total_work",
) -> List[Tuple[int, int]]:
    """Measure ``metric`` of ``engine`` over ``generator(n)`` for each size."""
    points = []
    for size in sizes:
        counters = measure_work(engine, generator(size))
        value = counters.as_dict()[metric]
        points.append((size, value))
    return points


def fitted_exponent(points: Iterable[Tuple[int, int]]) -> float:
    """Least-squares slope of log(work) against log(n).

    An exponent near 1 means linear growth, near 2 quadratic.  Sizes or
    values of zero are skipped.
    """
    xs, ys = [], []
    for size, value in points:
        if size > 0 and value > 0:
            xs.append(math.log(size))
            ys.append(math.log(value))
    n = len(xs)
    if n < 2:
        return float("nan")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator if denominator else float("nan")


def engine_answers(engine: str, workload):
    """Convenience wrapper used inside timed benchmark bodies."""
    program, database, query = workload
    return run_engine(engine, program, query, database.copy()).answers


def comparison_row(engines: Sequence[str], workload) -> Dict[str, int]:
    """Total work of each engine on one workload (one row of the table)."""
    return {engine: measure_work(engine, workload).total_work() for engine in engines}
