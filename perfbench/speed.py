"""Speed samples of the vCPU a benchmark worker runs on.

On a shared host a vCPU can run 20-50% slower for seconds at a time,
independently of the other vCPU and with no steal time recorded.  While a
`SpeedSampler` is active, a SIGALRM handler times a fixed integer loop every
PERIOD_S of wall time; the parent turns the samples into the mean speed over
that stretch.  Time spent in the handler is counted in `spent_ns`, so callers
can take it out of their own timings.

This module imports only the standard library: the worker loads it before
mtkit, to sample the speed during the import too.
"""

import signal
import time
from array import array

clock = time.perf_counter_ns


class SpeedSampler:
    """Context manager that samples the vCPU's speed while it is active."""

    PERIOD_S = 0.002
    LOOP = range(400)

    def __init__(self, on_tick=None):
        """`on_tick(ns)`, if given, learns the time each tick took."""
        self.samples = array("q")
        self.spent_ns = 0
        self.on_tick = on_tick

    def _tick(self, signum, frame):
        t0 = clock()
        s = 0
        for i in self.LOOP:
            s += i * i % 7
        t1 = clock()
        self.samples.append(t1 - t0)
        spent = clock() - t0
        self.spent_ns += spent
        if self.on_tick is not None:
            self.on_tick(spent)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
