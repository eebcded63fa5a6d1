"""Host-speed probe: corrects pass times for a host whose speed drifts.

On a 2-vCPU x86-64 virtual machine (Xeon, 2.0 GHz), one pass on fixed inputs
took anywhere from 8 to 15 s, and a fixed numpy kernel slowed by the same
factor (up to 2x) within seconds, with no steal time reported. Raw wall
time over ten seeds therefore spread far past any useful bound. While a
pass runs, a timer signal interrupts it every SAMPLE_INTERVAL_S to time a
few milliseconds of a fixed numpy kernel on 16,384-element arrays. Of the
kernels tried (512-element arrays, 16,384-element arrays, pure Python,
4-element arrays), this one made repeated passes on fixed inputs agree best
on every workload. Each stretch between probes is scaled by the reference
kernel speed over the speed the probes around it saw, and the probes' own
time is left out. The kernel does not use stratfit, so a change to the
library cannot move it.
"""

import signal
import statistics
import time

import numpy as np

REF_S_PER_ITER = 250e-6  # kernel speed on that machine in its fast state
SAMPLE_INTERVAL_S = 0.25
SAMPLE_ITERS = 12
_X = np.linspace(-3.0, 3.0, 16384)


def kernel(iterations: int) -> float:
    s = 0.0
    for i in range(iterations):
        y = np.exp(-0.5 * _X * _X)
        z = np.logaddexp(_X, y)
        s += float(y.sum()) + 1e-3 * float(z[i])
    return s


def probe(iterations: int = SAMPLE_ITERS, repeats: int = 1) -> float:
    """Median seconds per kernel iteration right now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(iterations)
        times.append((time.perf_counter() - t0) / iterations)
    return statistics.median(times)


class SpeedSampler:
    """Context manager that probes the host speed on a timer while the
    body runs; then :meth:`wall` and :meth:`corrected` give its time."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.marks: list[tuple[float, float, float]] = []  # (start, end, s/iter)

    def _probe(self, *_):
        start = time.perf_counter()
        value = probe()
        self.marks.append((start, time.perf_counter(), value))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def _segments(self):
        for (_, end, a), (start, _, b) in zip(self.marks, self.marks[1:]):
            yield start - end, 0.5 * (a + b)

    def wall(self) -> float:
        """Time in the body with the probes taken out."""
        return sum(seconds for seconds, _ in self._segments())

    def corrected(self) -> float:
        """Time in the body at the reference host speed."""
        return sum(seconds * REF_S_PER_ITER / speed for seconds, speed in self._segments())
