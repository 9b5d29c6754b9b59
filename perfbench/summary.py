"""Latency quantiles and run-set statistics.

Latency quantiles use the Harrell-Davis estimator: a Beta-weighted average
of all order statistics instead of one or two of them.  The one-shot
workloads are a balanced mixture of cells whose latencies differ by orders
of magnitude, so the plain sample median sits on the boundary between two
cells and reads the slowest sample of one and the fastest of the next --
tail values that jump from run to run.  The weighted estimate blends the
neighbourhood of the rank and is steady there.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def hd_quantile(values: Sequence[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # Beyond twelve standard deviations of Beta(a, b) the weights vanish.
    spread = 12.0 * math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    low = max(0, int((p - spread) * n))
    high = min(n, int(math.ceil((p + spread) * n)))
    total = 0.0
    previous = beta_cdf(a, b, low / n)
    for i in range(low, high):
        current = beta_cdf(a, b, (i + 1) / n)
        total += (current - previous) * ordered[i]
        previous = current
    return total


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile, as ``statistics`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def compare_sets(
    declared: Sequence[dict], base: Dict[str, List[float]], other: Dict[str, List[float]]
) -> List[dict]:
    """One row per declared metric: both sides' quartiles, wins and a verdict.

    ``base`` and ``other`` map a metric name to its values, paired by
    position (same seed, same run slot).  A side whose own spread exceeds
    the bound cannot resolve a change of that size: the verdict is
    ``unresolved`` unless every run of one side beats every run of the
    other.
    """
    rows = []
    for metric in declared:
        name = metric["name"]
        a, b = base.get(name), other.get(name)
        if not a or not b:
            continue
        bound = metric.get("bound", 0.0)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        pairs = list(zip(a, b))
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        base_q, other_q = quartiles(a), quartiles(b)
        # How much worse the other median is, as a share of the base median.
        change = sign * (other_q[1] - base_q[1]) / base_q[1]
        separated = max(b) < min(a) or min(b) > max(a)
        if max(spread(a), spread(b)) > bound and not separated:
            verdict = "unresolved"
        elif change > bound:
            verdict = "worse"
        elif wins >= 0.9 * len(pairs) and -change > spread(a):
            verdict = "better"
        else:
            verdict = "same"
        rows.append(
            {
                "metric": name,
                "base": base_q,
                "other": other_q,
                "change": change,
                "win_fraction": wins / len(pairs) if pairs else 0.0,
                "verdict": verdict,
            }
        )
    return rows
