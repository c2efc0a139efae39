"""Machine-speed probe: reads how fast this machine runs Python right now,
so request times can be given at one fixed speed.

The host this benchmark runs on switches between speeds up to 2x apart, for
stretches from under a second to minutes.  A run cannot average that away,
so while a SpeedProbe is active a SIGALRM timer interrupts the run every
EVERY_S seconds and times a fixed piece of pure-Python work (kernel), shaped
like qk's inner loops: a walk over a multiplication table, building
bitmasks.  The kernel allocates no object the garbage collector tracks, and
it is the benchmark's own code, so no change to qk changes it.

A request's time at the reference speed is its own time, net of probing,
times s ** SENSITIVITY, where s is the mean of REFERENCE_S / kernel time over
the samples taken while it ran (widened by WINDOW_S on each side, so a short
request has samples too).  REFERENCE_S is the kernel's time at the fast
speed of a 2-core Xeon VM, so on that machine the figures are about what a
request takes there when the host leaves it at full speed.

SENSITIVITY is how much harder qk's code is hit than the kernel when the
host slows down: qk's time grows as s ** -SENSITIVITY.  Two measurements on
that VM gave about 1.2: suite calls of 0.2-2 s timed under the probe, where
1.2 gave the least spread of the scaled times, and whole runs of all three
workloads, where the log of the measured time fell 1.07-1.31 per unit of the
log of s.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

EVERY_S = 0.1
WINDOW_S = 0.25
REFERENCE_S = 0.003
SENSITIVITY = 1.2

_N = 64
_ROUNDS = 4
_TABLE = [[(x * y + x + 3 * y) % _N for y in range(_N)] for x in range(_N)]


def kernel() -> int:
    """A fixed piece of work, _ROUNDS times: for every row of _TABLE, the
    bitmask of its entries and the entries the mask says are set."""
    tab = _TABLE
    acc = 0
    for _ in range(_ROUNDS):
        for x in range(_N):
            row = tab[x]
            m = 0
            for y in range(_N):
                m |= 1 << row[y]
            for y in range(_N):
                if m >> y & 1:
                    acc += row[y]
    return acc


class SpeedProbe:
    """Samples the machine's speed on a timer while active (a context
    manager; the main thread only)."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints of the samples, perf_counter
        self.speeds: list[float] = []  # REFERENCE_S / kernel time
        self.spent = 0.0  # time spent probing, handler included
        self._old = None

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)  # so there is a sample from the start
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += perf_counter() - t0

    def clock(self) -> tuple[float, float]:
        """(perf_counter, the same net of the time spent probing so far)."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now, now - spent

    def factor(self, start: float, end: float) -> float:
        """What takes a time measured from start to end to the reference
        speed: s ** SENSITIVITY, with s the mean speed over the samples taken
        from start - WINDOW_S to end + WINDOW_S, or the nearest sample if
        there is none."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo < hi:
            s = sum(self.speeds[lo:hi]) / (hi - lo)
        else:
            k = min(lo, len(self.times) - 1)
            if k > 0 and start - self.times[k - 1] < self.times[k] - end:
                k -= 1
            s = self.speeds[k]
        return s ** SENSITIVITY
