"""A fixed reference kernel that measures the host's current speed.

The benchmark shares its host with others, whose load changes its speed
for pure-Python code by a third within seconds.  ``run.py`` divides every
timed op by the kernel's time measured just before and just after it, and
every set-up sample by the kernel's time in the set-up interpreter, then
multiplies by ``REFERENCE_S``.  The kernel does not touch symgrowth, so a
change to the program moves the scaled times as it moves wall time.
"""

from __future__ import annotations

import statistics
import time

#: times are reported in seconds on a host where one reference_kernel call
#: takes this long (on a shared 2-vCPU x86-64 cloud host it took 0.55 to
#: 1.1 ms as the host's load changed)
REFERENCE_S = 0.6e-3


def reference_kernel() -> int:
    """Fixed pure-Python work of the program's kind: a set of tuple products."""
    a = [(i % 37, i % 11) for i in range(60)]
    out = set()
    for x in a:
        for y in a:
            out.add(((x[0] + y[0]) % 37, (x[1] * y[1]) % 11))
    return len(out)


def reference_s(repeats: int = 1) -> float:
    """Median wall seconds of ``repeats`` reference_kernel calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
