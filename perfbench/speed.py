"""Host speed probe, for timings that do not drift with the host.

On a shared virtual machine the same pure-Python work can take up to
twice as long from one second or minute to the next, because other
tenants load the physical core. The two vCPUs drift independently, so
the probe runs in the measuring process itself: a SIGALRM timer
interrupts it every INTERVAL_S seconds and times one fixed sample of
Fraction arithmetic, the kind of work the kernel does. A sample's
duration divided by REFERENCE_S is the host's slowdown at that moment.

A timing is normalized by dividing it by the slowdown the samples show
while it ran (see SpeedProbe.slowdown); the result is the time the same
work takes when one sample takes REFERENCE_S. Time spent in samples is
subtracted from the timings first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.25
SPAN_SAMPLES = 10
# one sample on this project's reference host (2-vCPU VM, Python 3.11.7)
# when no other tenant loads its core
REFERENCE_S = 2.5e-4
BURST = 15


def sample_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        sample_work()
        t1 = perf_counter()
        self.times.append(t1)
        self.slowdowns.append((t1 - t0) / REFERENCE_S)
        self.spent += t1 - t0

    def burst(self) -> float:
        """Take BURST samples now; their median slowdown."""
        for _ in range(BURST):
            self._sample()
        return statistics.median(self.slowdowns[-BURST:])

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown while [start, end] ran.

        A timing that spans at least SPAN_SAMPLES samples gets the
        harmonic mean of the samples inside it: samples are evenly spaced
        in wall time and the work done is the integral of speed, so this
        follows a host that switches between fast and slow spells. A
        shorter timing ran in one spell; it gets the median of the samples
        within WINDOW_S of it, which a single stalled sample cannot move.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo >= SPAN_SAMPLES:
            return statistics.harmonic_mean(self.slowdowns[lo:hi])
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.slowdowns[lo:hi] or self.slowdowns)
