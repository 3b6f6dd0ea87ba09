"""Host-speed factor of a shared machine, sampled beside the measured work.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes (busy neighbours), which a longer run or a median
cannot average away: ten runs of one workload met one host, the next ten
another.  ``Speed.sample`` times a fixed pure-Python loop -- the kind of work
the library's hot paths are made of -- between chunks of measured work, or
from a background thread while a long call runs; the loop's time over
``REFERENCE_S`` says how much slower than the reference box the host is *at
that moment*, and every timed run divides its CPU-bound times by it.  A change
to the library cannot move the loop, so it moves a normalised time exactly as
it moves the wall time; only the host's share is taken out.  The factor
itself is printed with every result (``host_speed_factor`` on the ``info``
line), so wall times can be recovered.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator

pc = time.perf_counter

#: Seconds ``spin`` takes in a quiet moment on the box the committed baseline
#: was taken on (2 cores, CPython 3.11): a factor of 1.0 means "that fast".
REFERENCE_S = 120e-6
#: A factor takes in this many samples either side of the work it is for.
SMOOTH = 4
#: Sampling period beside work that cannot be interleaved with samples: under
#: half a percent of one core.
PERIOD_S = 0.05
_ITEMS = list(range(2000))


def spin() -> float:
    """Seconds for a fixed scan of a list with a compare per element."""
    items = _ITEMS
    least = 1e18
    start = pc()
    for _ in range(5):
        for item in items:
            if item < least:
                least = item
    return pc() - start


class Speed:
    """Timestamped samples of ``spin`` and the factors they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            self.seconds.append(spin())
            self.times.append(pc())

    @contextmanager
    def during(self, period: float = PERIOD_S) -> Iterator[None]:
        """Keep sampling from a background thread while the body runs.

        For a call that lasts seconds and keeps the other cores busy (worker
        pools, a child process): the host's speed changes within it, and these
        samples see the host as the workers see it.
        """
        done = threading.Event()

        def sampler() -> None:
            while not done.wait(period):
                self.sample()

        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()

    def factor(self, start: float, end: float | None = None) -> float:
        """Host-speed factor of work that ran from ``start`` to ``end``
        (``perf_counter`` times): the median of the samples taken meanwhile and
        of ``SMOOTH`` either side, over ``REFERENCE_S``."""
        first = bisect.bisect_left(self.times, start) - SMOOTH
        last = bisect.bisect_right(self.times, start if end is None else end) + SMOOTH
        return statistics.median(self.seconds[max(0, first) : last]) / REFERENCE_S

    def median_factor(self) -> float:
        return statistics.median(self.seconds) / REFERENCE_S
