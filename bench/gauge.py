"""Machine-speed gauge that normalizes the benchmark's times.

On a shared host one core's speed swings by up to 2x within a second as
other tenants come and go, and the slow spells cover a different share of
each run, so raw medians of the same code drift by 20-40% between runs. A
fixed probe that never touches the program (a pure-Python float loop) is
timed between units and, from a SIGALRM handler in the same thread, every
TICK_S during set-up and inside a unit. A unit's normalized time is its own
time, less the probes run inside it, times REF_S over the mean probe time
seen during and around it: seconds at the speed where one probe takes REF_S.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

REF_S = 0.001
TICK_S = 0.05
GAP_PROBES = 10
_DATA = [((i * 2654435761) % 1000003) / 1000003.0 for i in range(5_000)]


def probe() -> float:
    """Time of one pass of the fixed float loop, in seconds."""
    exp, log = math.exp, math.log
    t0 = time.perf_counter()
    acc = 0.0
    for x in _DATA:
        acc += log(1.0 + exp(-x))
    return time.perf_counter() - t0


def gap() -> list[float]:
    """GAP_PROBES probe times taken back to back, between two units."""
    return [probe() for _ in range(GAP_PROBES)]


def speed(*probe_lists: list[float]) -> float:
    """REF_S over the mean of all the given probe times."""
    times = [t for ts in probe_lists for t in ts]
    return REF_S * len(times) / sum(times)


class InUnitProbes:
    """Runs a probe every TICK_S while `sampling()` is active. `clock()` is
    perf_counter less the time those probes took, so units and trace spans
    timed with it exclude the probes."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: list[float] = []

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t = probe()
        self.spent += t
        self.samples.append(t)

    @contextlib.contextmanager
    def sampling(self):
        """Probe during the block; yields the list that collects the times."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
