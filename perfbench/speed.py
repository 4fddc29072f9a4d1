"""How fast the machine runs while the benchmark measures.

The host of a shared virtual machine slows a process down by up to 2x, in
stretches of seconds to minutes, so the same build or query stream reads up
to twice as slow from one minute to the next. ``SpeedSampler`` times a tiny
fixed pure-Python loop from a ``SIGALRM`` handler every ``interval``
seconds, during builds and queries alike (the handler runs between
bytecodes of the main thread; no thread or process is started). A measured
interval is then scaled by ``REFERENCE_PROBE_S / median(probe times inside
it)``: its seconds at the speed where the probe takes ``REFERENCE_PROBE_S``.
Time spent inside the handler is subtracted from every measurement.

Builds and loads allocate and walk large structures, and slow down less than
the probe does: over the 30 set-ups and 30 loads of one workload in a
ten-seed set, log(seconds) rose by 0.5 to 0.76 per unit of log(probe
seconds), on every workload. So
``measure`` raises their factor to ``BUILD_EXPONENT``. Re-scaling the raw
times of those two sets, the full factor left their medians up to 15% apart
and ten-seed spreads up to 0.19; the exponent 0.75 left them at most 6% apart
and spreads at most 0.09. Query slices, whose hot loops are pure Python
like the probe, take the full factor.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_STEPS = 10_000
# probe() seconds on a 2-core 2.1 GHz virtual machine running at full speed.
REFERENCE_PROBE_S = 0.0012
MIN_SAMPLES = 5
BUILD_EXPONENT = 0.75


def probe() -> None:
    table = {}
    for i in range(PROBE_STEPS):
        table[i & 1023] = table.get(i & 1023, 0) + i


class SpeedSampler:
    def __init__(self, interval: float):
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # seconds spent inside the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        took = perf_counter() - start
        self.starts.append(start)
        self.seconds.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured over [start, end] to reference-speed
        seconds; a short interval borrows the nearest samples around it."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            return 1.0
        return REFERENCE_PROBE_S / statistics.median(self.seconds[lo:hi])

    def measure(self, work):
        """Run ``work`` (a build or a load); return its result, its seconds net
        of sampling, and the factor to reference speed."""
        spent, start = self.spent, perf_counter()
        result = work()
        end = perf_counter()
        return (result, end - start - (self.spent - spent),
                self.scale(start, end) ** BUILD_EXPONENT)

    def median_scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.seconds) if self.seconds else 1.0
