"""The machine's own speed, measured alongside the ops, to scale op times.

The benchmark runs on shared machines whose speed drifts: on the 2-core
machine this was written on, a fixed pure-Python loop ran at half speed for
minutes at a time, and a run's op times followed it.  So between ops the
worker times a reference chunk, a fixed loop of REF_ITERATIONS additions,
at most every EVERY_S seconds.  An op's time is scaled by REF_NOMINAL_S over
the median chunk time within WINDOW_S of the op: it reads as the op's time
on a machine that runs the chunk in REF_NOMINAL_S, which the machine above
did when nothing else slowed it.  The raw times are reported beside the
scaled ones.

A chunk runs with any trace or profile hook taken off, so that a hook the
program installs slows its ops but not the reference.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import time

REF_ITERATIONS = 4000
REF_NOMINAL_S = 2e-4
EVERY_S = 0.02
WINDOW_S = 0.25
BURST = 15  # chunks in a row, where a single time is scaled


def chunk():
    """Time one reference chunk: (start, duration)."""
    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(None)
    sys.setprofile(None)
    t0 = time.perf_counter()
    x = 0
    for k in range(REF_ITERATIONS):
        x += k
    t1 = time.perf_counter()
    sys.settrace(trace)
    sys.setprofile(profile)
    return t0, t1 - t0


def burst_scale():
    """The scale factor from BURST chunks timed now."""
    return REF_NOMINAL_S / statistics.median(chunk()[1] for _ in range(BURST))


class Meter:
    """Reference chunks timed between the ops of one pass."""

    def __init__(self):
        self.starts, self.times = [], []
        self.due = 0.0

    def tick(self, force=False):
        """Time a chunk if one is due; call it between ops."""
        if force or time.perf_counter() >= self.due:
            t0, dt = chunk()
            self.starts.append(t0)
            self.times.append(dt)
            self.due = time.perf_counter() + EVERY_S

    def scale(self, t0, t1):
        """The scale factor for an op that ran from t0 to t1."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.times[lo:hi] or self.times
        return REF_NOMINAL_S / statistics.median(near)
