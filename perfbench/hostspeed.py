"""Host-speed reference for scaling wall times on a shared machine.

On a shared host the same single-threaded Python work can run 40-75% slower
for seconds at a time, because other tenants slow the core; CPU time rises
with wall time, so it does not help. A fixed pure-Python loop timed during
the measured operations slows by nearly the same factor.

A wall-clock timer signal samples the loop every INTERVAL_S while a phase
runs; the handler runs between bytecodes of the operation it interrupts.
Each operation's latency is then reduced by the time the handler took inside
it and scaled by REFERENCE_S over the mean loop time sampled during it and
next to it. The loop mixes bit-mask backtracking, as in the engine, with
tuples, frozensets and a dict, as in the solver and the hitting set; it
never calls the program, so no change to the program can move it.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

# the reference loop's typical time on a 2-vCPU Intel Xeon host under
# CPython 3.11 in its faster state; only a scale, so that scaled times read
# close to wall times on that host
REFERENCE_S = 2.0e-3
SAMPLES = 3  # loop runs per sample; odd, so the median is one of them
INTERVAL_S = 0.2


def reference_loop() -> int:
    """Enumerate the 288 completed 4x4 grids by bitmask backtracking, then
    index them by their odd-digit cells in a dict of frozensets; returns the
    number of distinct keys."""
    full = 15
    rows = [0] * 4
    cols = [0] * 4
    boxes = [0] * 4
    values = [0] * 16
    grids = []

    def rec(i: int) -> None:
        if i == 16:
            grids.append(tuple(values))
            return
        r, c = divmod(i, 4)
        b = (r // 2) * 2 + c // 2
        cand = ~(rows[r] | cols[c] | boxes[b]) & full
        while cand:
            bit = cand & -cand
            cand ^= bit
            rows[r] |= bit
            cols[c] |= bit
            boxes[b] |= bit
            values[i] = bit.bit_length()
            rec(i + 1)
            rows[r] ^= bit
            cols[c] ^= bit
            boxes[b] ^= bit

    rec(0)
    seen: dict = {}
    for grid in grids:
        key = frozenset((i, v) for i, v in enumerate(grid) if v & 1)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def sample() -> float:
    """Median time of the reference loop over SAMPLES back-to-back runs."""
    times = []
    for _ in range(SAMPLES):
        t0 = perf_counter()
        if reference_loop() != 112:
            raise RuntimeError("reference loop miscounted its keys")
        times.append(perf_counter() - t0)
    return sorted(times)[SAMPLES // 2]


class Sampler:
    """Samples the reference loop on a timer while `running` is active."""

    def __init__(self):
        self.at: list[float] = []  # when each sample started
        self.loop_s: list[float] = []  # the sample's reference-loop time
        self.spent: list[float] = []  # the whole handler's time

    def tick(self, signum=None, frame=None) -> None:
        """Take one sample; also the timer signal's handler."""
        t0 = perf_counter()
        loop_s = sample()
        self.at.append(t0)
        self.loop_s.append(loop_s)
        self.spent.append(perf_counter() - t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, seconds: float) -> float:
        """Wall seconds measured from `start`, minus the sampling inside
        them, at the reference speed sampled over and next to them."""
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, start + seconds)
        busy = seconds - sum(self.spent[lo:hi])
        # callers tick after their last operation, so `near` is never empty
        near = self.loop_s[max(0, lo - 1) : hi + 1]
        return busy * REFERENCE_S * len(near) / sum(near)


def timed(fn):
    """Run fn() once under a Sampler: (seconds at the reference speed, result)."""
    sampler = Sampler()
    with sampler.running():
        sampler.tick()
        start = perf_counter()
        result = fn()
        spent = perf_counter() - start
        sampler.tick()
    return sampler.scaled(start, spent), result
