"""The host's speed, sampled while a workload runs.

The benchmark runs on a shared VM whose speed changes by up to a factor of
two within a minute (see README.md, Noise).  A timing that is compared
across runs is therefore scaled to a reference speed: a fixed pure-Python
kernel, which calls nothing of injres, is timed every ``EVERY_S`` seconds
from a timer signal, also in the middle of a long request, and a request
that ran while the kernel took ``c`` seconds is charged
``seconds * REFERENCE_S / c``, with ``c`` the harmonic mean of the samples
taken while it ran: the samples are even in time, so this is the mean
speed over the request, and a sample slowed by an interrupt barely moves
it.  A change to the program moves its own time
and not the kernel's, so it shows in full in the scaled figures.
"""

import bisect
import signal
import statistics
import time

# A typical time of the kernel on a 2-core 2.1 GHz Xeon VM, the host the
# bounds were set on: the scaled figures read as seconds at that speed.
REFERENCE_S = 0.002
EVERY_S = 0.1
KERNEL_N = 20000


def kernel():
    s = 0
    for i in range(KERNEL_N):
        s += i * i % 7
    return s


def kernel_cost():
    """The median time of five kernel calls, after one warm-up call."""
    kernel()
    times = []
    for _ in range(5):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedProbe:
    """Times the kernel every EVERY_S seconds of wall time while active.

    Use as a context manager around the timed work.  `charged` turns the
    wall time of an interval into seconds at the reference speed.
    """

    def __init__(self):
        self.starts, self.costs = [], []
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        kernel()
        self.costs.append(time.perf_counter() - t)
        self.starts.append(t)
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def charged(self, start, end):
        """Seconds at the reference speed for the interval start..end.

        The kernel's own time inside the interval is taken out; the host's
        speed comes from the samples inside the interval and the nearest
        one on each side.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(self.costs[lo:hi])
        cost = statistics.harmonic_mean(self.costs[max(lo - 1, 0):hi + 1])
        return (end - start - inside) * REFERENCE_S / cost
