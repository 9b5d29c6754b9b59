"""Host speed, measured while the benchmark runs, and timings rescaled by it.

The benchmark is meant to run on shared virtual machines.  There, other
tenants slow every instruction of this process by up to 2x, switching
between speeds about once a second.  CPU time slows with wall time, so the
slowdown is not steal time that could be subtracted.  On a 2-CPU x86-64
virtual machine, ten plainly timed runs of each workload spread by up to
23% between their quartiles, wider than any bound a regression check
could use.

So a fixed pure-Python reference kernel, the *probe*, is timed between ops,
outside the timed regions, and every timing is rescaled to the host speed
at which the probe takes :data:`NOMINAL_PROBE_NS`::

    reported = measured * NOMINAL_PROBE_NS / (median probe time around it)

A reported millisecond is thus a millisecond of a host running at nominal
speed.  A change to the library moves its timings and not the probe's; a
slower host moves both.  The probe calls no library code and allocates no
object the cyclic garbage collector tracks, so it neither measures the
program under test nor moves its collections.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns
from typing import Dict, List

#: The probe's duration at nominal host speed: about its fastest on the
#: 2-CPU x86-64 virtual machine with Python 3.11 that defined the benchmark.
NOMINAL_PROBE_NS = 400_000
#: At most one probe per this much loop time, so probes add about 2%.
PROBE_INTERVAL_NS = 20_000_000


def _kernel() -> int:
    """Dictionary updates and integer arithmetic: interpreter-bound work."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += key * 3
    return total


class HostClock:
    """Probes the host's speed and rescales timings to nominal speed."""

    def __init__(self) -> None:
        self.at: List[int] = []  # probe start times, ascending
        self.took: List[int] = []  # probe durations
        self._next = 0

    def probe(self) -> None:
        start = perf_counter_ns()
        _kernel()
        end = perf_counter_ns()
        self.at.append(start)
        self.took.append(end - start)
        self._next = end + PROBE_INTERVAL_NS

    def tick(self) -> None:
        """Probe if the last probe is at least one interval old."""
        if perf_counter_ns() >= self._next:
            self.probe()

    def scale(self, start: int, end: int, nearest: int = 1) -> float:
        """Nominal over actual host speed during ``[start, end]``.

        The estimate is the median of the ``nearest`` probes before
        ``start`` and the ``nearest`` probes after ``end``.  The host
        switches between speeds about once a second, so probes further
        away describe another state as often as this one.
        """
        before = bisect_left(self.at, start)
        after = bisect_right(self.at, end)
        nearby = self.took[max(0, before - nearest) : before] + self.took[after : after + nearest]
        return NOMINAL_PROBE_NS / statistics.median(nearby)

    def speed(self) -> Dict[str, float]:
        """Host speed over the run as a share of nominal: quartiles."""
        speeds = sorted(NOMINAL_PROBE_NS / took for took in self.took)
        if len(speeds) < 2:
            return {"p25": speeds[0], "p50": speeds[0], "p75": speeds[0], "probes": len(speeds)}
        p25, p50, p75 = statistics.quantiles(speeds, n=4)
        return {"p25": p25, "p50": p50, "p75": p75, "probes": len(speeds)}
