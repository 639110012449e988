"""Host speed reference for normalising in-process timings.

The benchmark shares a virtual machine with other tenants, and the speed
of its CPUs swings by up to a factor of two for seconds to minutes at a
time.  So a fixed kernel that uses nothing from gds (rationals, dicts and
ints, in the interpreter's idiom) is timed a few times a second alongside
the operations, and an operation's wall time is scaled by

    REFERENCE_S / (kernel time near that operation)

which gives seconds on a host that runs the kernel in REFERENCE_S.  A
change to gds moves the scaled time as it moves the wall time, while a
slow spell of the host moves the kernel and the operation together and
largely cancels out.  The raw wall times stay in the report.

Pipes are not scaled: their time is mostly interpreter start-up, which
neither this kernel nor a timed start-up of a bare interpreter tracked
well enough to make the scaled times steadier than the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Kernel time that defines one reference second: about the kernel's time
# on a 2.1 GHz Xeon vCPU when the host is quiet.
REFERENCE_S = 0.002
# Seconds between two kernel timings during a timed phase.
EVERY_S = 0.2
# Kernel timings on each side of an instant that set its speed.
NEIGHBOURS = 3


def kernel():
    """Fixed work: rationals, dicts, ints."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
        table[i % 17] = table.get(i % 17, 0) + i
    return acc, table


class SpeedLog:
    """Kernel timings taken through a run, and the scale they give."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self):
        self.at.append(time.perf_counter())
        t0 = time.perf_counter()
        kernel()
        self.took.append(time.perf_counter() - t0)

    def maybe_sample(self):
        """Time the kernel if EVERY_S has passed since the last timing."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor from wall seconds at instant t to reference seconds."""
        i = bisect.bisect_left(self.at, t)
        near = self.took[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.took)
