"""Host speed, measured with a fixed reference loop.

The benchmark's host is shared, and the speed at which a CPU runs Python
code changes by up to 1.7x for seconds to minutes at a time.  A
single-threaded job slows by the same factor as a fixed loop of pure
interpreter work run next to it on the same CPU: over Fig. 11 sweeps of
one CPU whose wall times spread 25% (IQR/median), the wall time divided
by the loop's time beside each job spread 2-3%.

A threaded service also waits on its threads and sockets, and a single
reading of the loop says little about one burst of it; over a whole run,
though, its speed follows the loop too.  In ten runs of ``svc_tcp_mixed``
during which the host slowed the loop from 7 to 10 ms, the medians of
the warm bursts rose from 0.51 to 0.88 s with it.

A time in *reference seconds* is a wall time multiplied by a scale: the
time it would have taken on a host that runs the loop in
``REFERENCE_NS``.  The loop is the benchmark's own code, so a change to
the program cannot change its speed; it allocates only ints and a dict
of ints, which the garbage collector does not track, so the size of the
program's heap does not change it either.
"""

from __future__ import annotations

import statistics
import time

#: Nanoseconds the reference loop takes on the reference host.
REFERENCE_NS = 5_000_000


def _loop() -> int:
    total = 0
    table = {}
    for i in range(40_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def reference_ns() -> int:
    """Nanoseconds one reference loop takes now, on this thread's CPU."""
    start = time.perf_counter_ns()
    _loop()
    return time.perf_counter_ns() - start


def scale(ns_values) -> float:
    """Factor from wall time to reference time of single-threaded work,
    given loop times measured around it (their mean)."""
    values = list(ns_values)
    return REFERENCE_NS * len(values) / sum(values)


def run_scale(ns_values) -> float:
    """Factor from wall time to reference time of a whole service run,
    given loop times read across it (their median)."""
    return REFERENCE_NS / statistics.median(ns_values)
