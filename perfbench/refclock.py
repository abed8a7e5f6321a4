"""Reference-speed clock: elapsed time as it would read on a CPU of fixed
speed.

The benchmark runs on shared virtual CPUs.  Their speed changes by up to a
factor of two from one fraction of a second to the next, as other work
lands on the same physical cores; the wall time of a run spread by 15% to
23% (interquartile range over median, ten seeds) against 1% to 3% in
reference time.  This clock measures the speed as the program runs: a
timer signal interrupts the process every ``PERIOD_S`` seconds, runs a
fixed probe of standard-library arithmetic (``fractions`` and ``dict``, the
kind of work the exact field does) and records how long it took.  The
reference time of an interval is its measured time, less the probes inside
it, with each stretch scaled by ``PROBE_REF_S`` over the duration of the
probes around it; the mean of these rates over a stretch is the time
average of the speed.  A program that gets faster takes fewer reference
seconds.  A CPU that gets slower changes them about a fifth as much as it
changes wall time, since the probe and the program do not slow down by
exactly the same factor.

The probe does not use qwig, so a change to qwig cannot move the scale.
"""

import bisect
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
# the probe's duration on the reference CPU: an uncontended vCPU of a
# 2-vCPU Intel Xeon VM, where reference seconds and seconds agree
PROBE_REF_S = 0.00028


def probe():
    total = Fraction(0)
    counts = {}
    for i in range(1, 120):
        total += Fraction(i % 97, i % 89 + 1)
        counts[i % 31] = counts.get(i % 31, 0) + i * i
    return total


class RefClock:
    """Start it first, stop it after the timed work, then map any
    ``perf_counter`` reading taken in between with ``ref``."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame):
        t = perf_counter()
        probe()
        self.starts.append(t)
        self.ends.append(perf_counter())

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.starts:
            self._tick(None, None)
        # reference seconds per second, from each probe
        self._rates = [PROBE_REF_S / (e - s) for s, e in zip(self.starts, self.ends)]
        # reference time at each probe's start; the probes themselves add none
        self._cum = [0.0]
        for k in range(1, len(self.starts)):
            gap = self.starts[k] - self.ends[k - 1]
            rate = (self._rates[k - 1] + self._rates[k]) / 2
            self._cum.append(self._cum[-1] + gap * rate)

    def ref(self, t):
        """Reference seconds at the reading t, from an arbitrary origin."""
        k = bisect.bisect_right(self.starts, t)
        if k == 0:
            return (t - self.starts[0]) * self._rates[0]
        last = k - 1
        if t <= self.ends[last]:
            return self._cum[last]
        if k < len(self.starts):
            rate = (self._rates[last] + self._rates[k]) / 2
        else:
            rate = self._rates[last]
        return self._cum[last] + (t - self.ends[last]) * rate

    def elapsed(self, t0, t1):
        return self.ref(t1) - self.ref(t0)

    def probe_time(self, t0, t1):
        """Seconds spent in probes between two readings."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
