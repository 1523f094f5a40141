"""A fixed reference computation, timed between operations.

The host's speed drifts by tens of percent within a minute, and the drift
moves the reference and the operations together.  Every timing the
benchmark reports is therefore scaled to a nominal host: a raw duration d
measured while one reference pass took r seconds is reported as
d * REFERENCE_S / r, where REFERENCE_S is the median pass time on the
reference machine.  Set-up time is not scaled (see run.measure_setup).
Each operation is paired with the reference samples
taken just before and just after it, 0.1 s apart at most, because the
host's fast and slow spells last well under a second.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 5.7e-4  # median pass on the reference machine (README)
PASSES = 3


def _step(x: float) -> float:
    return x ** 1.5 / (1.0 + x)


def reference_pass() -> int:
    """Interpreted float arithmetic, calls and tuple comparisons, then an
    integer loop: the two kinds of bytecode the workloads spend time in."""
    acc = 0.0
    best = (math.inf, -1)
    for k in range(600):
        acc += _step(k * 1e-3)
        cand = (acc % 1.0, k)
        if cand < best:
            best = cand
    total = best[1]
    for i in range(6000):
        total += i * i % 7
    return total


def reference_time(passes: int = PASSES) -> float:
    """Median wall time of a few reference passes, in seconds."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        reference_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrator:
    """Reference timings taken during a phase, and the scale at any time."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        ref = reference_time()
        self.times.append(time.perf_counter())
        self.refs.append(ref)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S / r for an operation run from t0 to t1, with r the
        mean of the reference samples just before and just after it."""
        times = np.asarray(self.times)
        before = max(int(np.searchsorted(times, t0, side="right")) - 1, 0)
        after = min(int(np.searchsorted(times, t1, side="left")), len(times) - 1)
        ref = 0.5 * (self.refs[before] + self.refs[after])
        return REFERENCE_S / ref
