"""The machine's speed, sampled while a pass runs, to put pass times on one scale.

The benchmark's host shares its cores with other tenants, and its speed
drifts by tens of percent over tens of seconds: a fixed exact-arithmetic
loop took from 51 ms to 81 ms within one 90 s window, and the same
``twisted`` pass took 5.3 s in one run and 9.6 s in another.  A regime can
outlast a whole run, so medians over the passes of one run cannot remove it.

``SpeedProbe`` therefore times a fixed reference kernel every
``INTERVAL_S`` while a pass runs (from a SIGALRM handler on the main thread,
so no thread or process is added), and once before and once after it.  The
kernel is exact arithmetic on ``Fraction`` entries, the same kind of work
the program does, and uses no code of the program.  A pass time ``t`` is
reported as ``t * NOMINAL_S / r``, where ``r`` is the median kernel time of
that pass: the seconds the pass would take on a machine where the kernel
takes ``NOMINAL_S``.  The time the handler spends is taken out of ``t``.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.1
# median kernel time on the reference machine (2 cores, x86_64, Python 3.11)
NOMINAL_S = 0.002
KERNEL_N = 7
KERNEL_MATRIX = [[Fraction((3 * i + 5 * j * j + 1) % 11 - 5, (i + 2 * j) % 5 + 1)
                  for j in range(KERNEL_N)] for i in range(KERNEL_N)]
KERNEL_DET = Fraction(39489369097, 51840000)


def kernel() -> Fraction:
    """Determinant of KERNEL_MATRIX by memoized cofactor expansion."""
    m, n = KERNEL_MATRIX, KERNEL_N
    cache: dict = {}

    def minor(cols: tuple) -> Fraction:
        if not cols:
            return Fraction(1)
        if cols in cache:
            return cache[cols]
        i = n - len(cols)
        total = Fraction(0)
        for pos, j in enumerate(cols):
            if m[i][j]:
                term = m[i][j] * minor(cols[:pos] + cols[pos + 1:])
                total = total + term if pos % 2 == 0 else total - term
        cache[cols] = total
        return total

    return minor(tuple(range(n)))


class SpeedProbe:
    """Use as ``with probe:`` around one pass; then read ``reference_s``, and
    ``spent_wall``/``spent_cpu`` to take the handler's time out of the pass."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._old = None

    def sample(self) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        value = kernel()
        t1 = time.perf_counter()
        if value != KERNEL_DET:
            raise RuntimeError("speed kernel gave %s" % value)
        self.samples.append(t1 - t0)
        self.spent_wall += t1 - t0
        self.spent_cpu += time.process_time() - c0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.spent_wall, self.spent_cpu = [], 0.0, 0.0
        self.sample()
        self.spent_wall = self.spent_cpu = 0.0   # taken before the pass
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        wall, cpu = self.spent_wall, self.spent_cpu
        self.sample()                            # taken after the pass
        self.spent_wall, self.spent_cpu = wall, cpu

    @property
    def reference_s(self) -> float:
        return statistics.median(self.samples)


def burst(count: int = 5) -> float:
    """Median kernel time over ``count`` back-to-back samples, outside a pass."""
    probe = SpeedProbe()
    for _ in range(count):
        probe.sample()
    return probe.reference_s


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the kernel took ``reference_s``, as seconds
    at NOMINAL_S."""
    return seconds * NOMINAL_S / reference_s
