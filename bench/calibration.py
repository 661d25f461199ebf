"""Host-speed calibration: a fixed kernel timed next to every measurement.

The build host (an Intel Xeon VM with 2 vCPUs) shares its hardware with
other machines' work. Its speed swings by up to 1.8x, for a second at a time or
for minutes, and CPU time swings with wall time. Pure-Python ``Fraction``
code and small numpy FFTs slow down together. No statistic taken within
one run removes a slow stretch that outlasts the run. So every timing is
taken between two runs of a fixed kernel (``Fraction`` arithmetic and
64-point FFTs, no critspde code), and is reported at reference speed:

    t_reported = t_measured * REFERENCE_S / (mean of the two kernel times)

On the build host, that turned a 46% interquartile spread of raw op times
into 6%. REFERENCE_S is the kernel's time on the build host in its fast
state (Intel Xeon, 2 vCPUs, python 3.11, numpy 2.4), so reported values
read as seconds there. Each run's manifest records the kernel times, so a
raw value can be recovered. The kernel does not call critspde, so a change
to the program cannot move it. A change that burns CPU in the background of
the benchmark process would slow both and be hidden.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

import numpy as np

REFERENCE_S = 1.4e-3

# bound before a traced pass rebinds numpy.fft, so tracing never slows
# the kernel
_rfft, _irfft = np.fft.rfft, np.fft.irfft
_VEC = np.cos(np.linspace(0.0, 6.0, 64))


def kernel() -> None:
    below = 0
    for i in range(1, 120):
        below += Fraction(i, i + 3) + Fraction(2, 2 * i + 1) < 1
    v = _VEC
    for _ in range(60):
        v = _irfft(_rfft(v) * 0.5, n=64)


def measure() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Clock:
    """Brackets groups of measurements with kernel runs.

    ``mark()`` times the kernel (the median of ``repeats`` runs), and returns
    the factor that scales every measurement taken since the previous mark
    to reference speed.
    """

    def __init__(self, repeats: int = 1) -> None:
        self.repeats = repeats
        self.kernel_s: List[float] = []
        self._last = self._kernel()

    def _kernel(self) -> float:
        return statistics.median(measure() for _ in range(self.repeats))

    def mark(self) -> float:
        now = self._kernel()
        self.kernel_s.append(now)
        factor = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return factor
