"""Machine-speed correction for the benchmark's timings.

On a shared machine the speed of the same Python code drifts by 10-40% over
tens of seconds to minutes, for all code alike.  Each run therefore also
times a fixed reference task that shares no code with meadows, and rescales
its timings by how much slower or faster that task ran than
``REFERENCE_NS``.  A timing is reported as the wall time it would have taken
with the reference task at ``REFERENCE_NS``; the raw wall times are printed
beside it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Median time of :func:`reference_task` on the machine that recorded
#: ``baseline.json`` (x86_64, 2 vCPUs, CPython 3.11.7).
REFERENCE_NS = 1_100_000


def reference_task():
    """Fixed pure-Python work in the same mix as meadows: rationals, small ints, tuples."""
    acc = Fraction(1, 3)
    table = {}
    for i in range(1, 200):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        table[i] = tuple((i * j) % 97 for j in range(12))
    return acc, table


def time_reference() -> int:
    """Wall time of one reference task, in ns."""
    t0 = time.perf_counter_ns()
    reference_task()
    return time.perf_counter_ns() - t0


def slowdown(samples: list[int]) -> float:
    """How many times slower than ``REFERENCE_NS`` the reference task ran."""
    return statistics.median(samples) / REFERENCE_NS
