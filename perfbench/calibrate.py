"""Machine-speed sampling for wall-clock metrics.

On a shared machine the same work can take up to twice as long for
seconds or minutes at a time. So during every timed call into the
program, a timer signal runs a small fixed kernel every ``INTERVAL_S``
in the benchmark's own thread: numpy operations on a few thousand
elements, driven from Python, the same mix as a filter step. Each
kernel run measures the machine's current slowdown: its time over
``NOMINAL_S``. A call's reported time is its wall time, minus the time
the kernel runs took, divided by the mean slowdown sampled during it.
The program cannot change the kernel, so the program's own speed-ups
and slow-downs pass through unchanged. The kernel takes about 4% of
the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on a shared 2-vCPU Intel Xeon VM in a quiet phase.
NOMINAL_S = 0.0009
INTERVAL_S = 0.025
# A short call is normalised by at least this many of the latest samples.
MIN_SAMPLES = 5

_X = np.random.default_rng(0).standard_normal((2000, 2))
_GRAM = np.array([[2.0, 0.1], [0.1, 1.0]])
_CHOLESKY = np.linalg.cholesky  # bound now, so a traced run never times it


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(30):
        y = _X[:, 0] * 1.0001 + _X[:, 1]
        m = y.mean()
        (y - m) @ (y - m)
        _CHOLESKY(_GRAM)
    return time.perf_counter() - start


class Clock:
    """Times calls into the program; this base class reports raw wall time."""

    def timed(self, fn, *args, **kwargs):
        """``(result, wall seconds, reported seconds)`` of ``fn(*args, **kwargs)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        return result, wall, wall


class SampledClock(Clock):
    """Reports times at nominal machine speed; sample only inside ``with``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        took = kernel_seconds()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args, **kwargs):
        first, spent = len(self.samples), self.spent
        result, wall, _ = super().timed(fn, *args, **kwargs)
        wall -= self.spent - spent
        last = len(self.samples)
        window = self.samples[max(0, min(first, last - MIN_SAMPLES)) : last]
        if not window:
            window = [kernel_seconds()]
        return result, wall, wall * NOMINAL_S / statistics.fmean(window)

