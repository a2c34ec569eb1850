"""The machine's current speed, sampled on the benchmark's own thread.

The benchmark shares a machine whose speed changes by up to 2x from one
second to the next.  ``SpeedSampler`` runs a fixed pure-Python kernel
(interpreter and float-formatting work, independent of the program under
test) from a ``SIGALRM`` handler every ``PERIOD_S`` seconds, so the
kernel runs on the main thread between the program's bytecodes and times
the same CPU the program is using.  A span of wall time is then scaled to
*reference seconds*: multiplied by ``REFERENCE_S`` over the mean kernel
time sampled inside the span.  The handler touches no state of the
program, and costs about 1% of the main thread.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.025
KERNEL_ITERATIONS = 300
# a typical kernel time on the machine the benchmark was written on, so a
# reference second is close to a wall second there; any constant works,
# it only fixes the unit
REFERENCE_S = 0.00025


def kernel() -> int:
    s = 0
    for i in range(KERNEL_ITERATIONS):
        s += len(repr(i * 1.0000001))
    return s


class SpeedSampler:
    reference_s = REFERENCE_S

    def __init__(self):
        # (start, seconds) per kernel run, in time order
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time sampled in [start, end]; for a span too short
        to hold a sample, the two samples around it."""
        if not self.samples:
            self._sample(None, None)
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (end,))
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
        return sum(s for _, s in samples[lo:hi]) / (hi - lo)

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] in reference seconds."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)
