"""Host-speed sampler: wall time rescaled to a fixed reference speed.

The benchmark shares a few vCPUs of a host with other tenants.  The speed
of the same code on one vCPU swings by 1.5x and more over tens of
seconds, with process CPU time equal to wall time and no steal time
counted, so neither CPU time nor more repetitions remove it.  The
sampler measures that speed while the program runs: every
``INTERVAL_S`` a ``SIGALRM`` handler times two fixed calibration
kernels, a pure-Python loop and a run of small NumPy operations (the
interpreter and array-dispatch work the program is made of).  A tick's
*slowdown* is the geometric mean of the kernels' durations over their
reference durations.  :meth:`Pacer.seconds` divides each interval
between ticks by the median slowdown of the ticks around it and adds
up the result: seconds of the program's own work at the reference
speed, with the sampler's time left out.

The kernels live here, not in the program, so a faster program reads
faster and a faster kernel cannot.  The handler runs between bytecodes
in the main thread, as every Python signal handler does.  It stores its
samples in flat arrays and allocates no garbage-collected objects, so it
does not move the program's garbage collections (or its peak memory).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

_clock = time.monotonic

#: Seconds between ticks.  A tick costs about 1 ms: ~2% of the run.
INTERVAL_S = 0.05

#: Ticks on each side of an interval whose slowdowns rescale it.
WINDOW = 2

_SMALL = np.arange(16.0)


def _python_loop() -> int:
    total = 0
    for i in range(5000):
        total += i * i % 7
    return total


def _small_arrays() -> float:
    x = _SMALL
    for _ in range(150):
        x = np.add(x, 1.0)[::1]
        x.sum()
    return float(x[0])


#: (kernel, its duration in seconds at the reference speed).  The
#: references are each kernel's fastest time seen on an idle 2-vCPU
#: Xeon (KVM) host, so a slowdown is about 1 when the host is quiet.
KERNELS = (
    (_python_loop, 3.0e-4),
    (_small_arrays, 3.0e-4),
)


class Pacer:
    """Samples host speed from ``start`` to ``stop``."""

    def __init__(self) -> None:
        # Per tick: start, end, and slowdown.
        self._starts = array("d")
        self._ends = array("d")
        self._slowdowns = array("d")

    def _tick(self, *_signal) -> None:
        start = _clock()
        log_ratio = 0.0
        for kernel, reference in KERNELS:
            begin = _clock()
            kernel()
            log_ratio += math.log((_clock() - begin) / reference)
        self._starts.append(start)
        self._ends.append(_clock())
        self._slowdowns.append(math.exp(log_ratio / len(KERNELS)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def _gaps(self):
        """``(begin, end, slowdown)`` of the intervals between ticks.

        The time before the first tick and after the last one takes the
        first and the last tick's slowdown.
        """
        starts, ends, slowdowns = self._starts, self._ends, self._slowdowns
        if not starts:
            raise RuntimeError("the pacer took no samples")
        smoothed = [
            statistics.median(slowdowns[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(starts))
        ]
        yield -math.inf, starts[0], smoothed[0]
        for i in range(len(starts) - 1):
            yield ends[i], starts[i + 1], smoothed[i]
        yield ends[-1], math.inf, smoothed[-1]

    def _overlaps(self, begin: float, end: float):
        for low, high, slowdown in self._gaps():
            covered = min(high, end) - max(low, begin)
            if covered > 0:
                yield covered, slowdown

    def host_seconds(self, begin: float, end: float) -> float:
        """Wall seconds in ``[begin, end]`` outside the sampler's ticks."""
        return sum(covered for covered, _ in self._overlaps(begin, end))

    def seconds(self, begin: float, end: float) -> float:
        """Seconds of ``[begin, end]`` at the reference speed."""
        return sum(
            covered / slowdown
            for covered, slowdown in self._overlaps(begin, end)
        )
