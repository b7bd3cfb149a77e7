"""Reference-speed clock: wall time scaled by the host's speed at the moment.

On a shared host the CPU this benchmark runs on slows down and speeds up by
tens of percent over seconds to minutes, whatever the program does.  A
:class:`ReferenceClock` probes that speed with a fixed kernel (a pure-Python
loop and a numpy sort; neither touches ``repro``) on the same CPU just before
and just after each timed unit of work, and converts the unit's wall time
into *reference seconds*: the time it would have taken had the kernel run at
:data:`REFERENCE_KERNEL_S`.  A change to the program moves reference seconds
as it moves wall seconds; a slow minute on the host moves neither much.

The process must stay on one CPU (``run.py`` pins it) so that the kernel
and the work share it.
"""

from __future__ import annotations

import statistics
import time

#: Median time of one kernel call on a quiet host of the kind the baseline
#: was recorded on (2-vCPU Xeon VM, Python 3.11): the unit of reference time.
REFERENCE_KERNEL_S = 0.0042

#: Kernel calls per probe; the probe reports their median.
PROBE_CALLS = 10
#: Iterations of the kernel's pure-Python loop.
LOOP_ITERATIONS = 50_000
#: Length of the array the kernel sorts.
SORT_LENGTH = 100_000


class ReferenceClock:
    """Converts wall seconds of consecutive units of work to reference seconds."""

    def __init__(self) -> None:
        import numpy as np

        self._array = np.random.default_rng(0).random(SORT_LENGTH)
        self._before = self.probe()

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
        self._array.copy().sort()
        return time.perf_counter() - start

    def probe(self) -> float:
        """Median kernel time right now, in wall seconds."""
        return statistics.median(self._kernel() for _ in range(PROBE_CALLS))

    def factor(self) -> float:
        """Reference seconds per wall second for the unit that just ended.

        Probes again, averages with the probe taken when the previous unit
        ended (or the clock was made), and keeps this probe for the next unit.
        """
        after = self.probe()
        factor = 2.0 * REFERENCE_KERNEL_S / (self._before + after)
        self._before = after
        return factor
