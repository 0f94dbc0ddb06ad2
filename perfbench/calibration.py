"""Host-speed calibration for the benchmark's timings.

The benchmark shares its host with other work, and the host's speed for
Python code can change by a fifth or more from one second to the next and
from one minute to the next, so a raw timing says as much about the host
as about mubkit.  While a worker measures, a timer signal therefore runs a
short fixed kernel (the benchmark's own code, never mubkit's) every
INTERVAL_S, and each timed region is reported at reference speed:

    scaled = (wall - kernel time inside the region) * REF_KERNEL_S / mean kernel time

The mean is taken over the samples inside the region, or over the
MIN_SAMPLES samples nearest its middle when the region holds fewer.  A
change to mubkit moves a scaled time as it moves the wall time; a change
in host speed mostly does not.  REF_KERNEL_S fixes the scale: a scaled
time is the wall time on a host that runs the kernel in REF_KERNEL_S.
The kernel works like mubkit's exact arithmetic: small-integer tuples,
nested multiply-add loops, allocation and dict traffic.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
MIN_SAMPLES = 8
REF_KERNEL_S = 300e-6


def kernel() -> int:
    acc = {}
    a = (3, 1, 4, 1, 5, 9, 2, 6)
    for r in range(40):
        b = tuple((x * 7 + r) % 11 for x in a)
        c = [0] * 15
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    c[i + j] += x * y
        acc[tuple(c)] = r
        a = tuple(v % 13 for v in c[:8])
    return len(acc)


class Calibrator:
    """Kernel samples (start, duration) taken on a timer signal, and the
    scaling of time regions by them.  Regions and samples share the
    perf_counter clock."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._cum: list[float] = [0.0]

    def _tick(self, signum=None, frame=None) -> None:
        t = perf_counter()
        kernel()
        self.samples.append((t, perf_counter() - t))  # one append: safe if re-entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer, then take MIN_SAMPLES more samples directly, so
        that the last region has neighbours on both sides."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(MIN_SAMPLES):
            self._tick()
        self.samples.sort()
        self._starts = [t for t, _ in self.samples]
        self._cum = [0.0]
        for _, d in self.samples:
            self._cum.append(self._cum[-1] + d)

    def scale(self, t0: float, t1: float, wall: float | None = None) -> float:
        """Scaled time of the region [t0, t1]; wall overrides t1 - t0 when
        the region began before the first sample could be taken."""
        starts, cum = self._starts, self._cum
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        own = (t1 - t0 if wall is None else wall) - (cum[j] - cum[i])
        if j - i < MIN_SAMPLES:
            mid = bisect.bisect_left(starts, (t0 + t1) / 2)
            i = max(0, min(mid - MIN_SAMPLES // 2, len(starts) - MIN_SAMPLES))
            j = i + MIN_SAMPLES
        return own * REF_KERNEL_S * (j - i) / (cum[j] - cum[i])

    def kernel_median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
