"""A fixed calibration workload that tracks how fast this machine is now.

On a shared host the speed of one core drifts, often by a factor of two
within seconds, as other tenants load the machine; that swamps any
change in the code being measured. While a sample's timed section runs,
:class:`Sampler` therefore interrupts it every :data:`TICK_S` seconds
of wall time and times one :func:`chunk` of fixed work. Each interval
between two chunks is scaled by the speed measured at its ends, to the
time it would take on a machine where a chunk takes :data:`REFERENCE_S`.
Scaling each interval by its own speed, not the whole section by the
mean speed, keeps a run that spent more of its time on a slow phase
from reading differently. The time spent in chunks is excluded.

A chunk is a pure-Python integer loop and uses no code from the
repository, so a change to the library moves the normalized times and
never the calibration. Of the chunks tried (this loop, a heap-and-dict
interpreter loop, small- and large-array NumPy arithmetic, and their
sums), this one tracked the speed of all five workloads best.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

#: Seconds of one chunk on the machine normalized host times refer to:
#: a 2-core x86-64 container when no other tenant slows it.
REFERENCE_S = 0.0025

#: Wall-clock interval between calibration chunks in a timed section.
TICK_S = 0.1


def chunk() -> None:
    """One unit of fixed calibration work."""
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003


def calibrate() -> float:
    """Median seconds of one chunk over 25 back-to-back runs."""
    times = []
    for _ in range(25):
        start = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times a chunk every :data:`TICK_S` while :meth:`running`.

    The chunks run in a ``SIGALRM`` handler on the main thread, so only
    one process loads the machine. :meth:`clock` reads host seconds less
    the time spent in chunks; :meth:`normalized` converts an interval of
    it to normalized seconds once sampling has ended.
    """

    def __init__(self):
        self._stamps: list[float] = []  # clock() at each chunk
        self._rates: list[float] = []  # REFERENCE_S / chunk seconds
        self._work: list[float] = []  # normalized seconds at each chunk
        self._paused = 0.0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # an alarm that lands inside a chunk is dropped
            return
        self._busy = True
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        self._paused += took
        now = self.clock()
        rate = REFERENCE_S / took
        work = 0.0
        if self._stamps:
            work = self._work[-1] + (now - self._stamps[-1]) * (self._rates[-1] + rate) / 2
        self._stamps.append(now)
        self._rates.append(rate)
        self._work.append(work)
        self._busy = False

    @contextmanager
    def running(self):
        """Sample for the duration of the block, with one chunk at each
        end so every interval inside it is bracketed."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    def _work_at(self, t: float) -> float:
        """Normalized seconds at clock time ``t``, interpolated between
        the chunks around it (extrapolated beyond the first or last)."""
        k = bisect.bisect_right(self._stamps, t) - 1
        k = min(max(k, 0), len(self._stamps) - 2)
        rate = (self._rates[k] + self._rates[k + 1]) / 2
        return self._work[k] + (t - self._stamps[k]) * rate

    def normalized(self, start: float, end: float) -> float:
        """Normalized seconds of the :meth:`clock` interval [start, end]."""
        return self._work_at(end) - self._work_at(start)

    @property
    def first_rate(self) -> float:
        """Speed factor of the first chunk, for work done before it."""
        return self._rates[0]
