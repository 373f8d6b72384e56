"""Machine-speed calibration for the benchmark's timings.

On a shared host the processor's speed drifts by tens of percent over seconds
and minutes, and runs that land in a slow stretch read slow however long they
are.  ``SpeedSampler.time`` therefore times a fixed reference kernel right
before and after the measured call and, through ``SIGALRM``, every
``SAMPLE_EVERY_S`` during it.  The kernel's own time is taken out of the call's
wall time, and the remainder is scaled by ``REFERENCE_S`` over the mean
kernel time: the result is the call's wall time at the speed where one kernel
call takes ``REFERENCE_S``.  The kernel touches no ybtwist state, so a change
to the package moves the scaled time as much as the raw one, unless it changes
process-wide state that the kernel feels too, such as starting threads.
"""

from __future__ import annotations

import signal
import statistics
import time

#: nominal time of one kernel call; it fixes the unit scale and nothing else
REFERENCE_S = 0.020
SAMPLE_EVERY_S = 0.5


def _queens(n: int, row: int = 0, cols: int = 0, d1: int = 0, d2: int = 0) -> int:
    if row == n:
        return 1
    count = 0
    for col in range(n):
        if not (cols >> col | d1 >> (row + col) | d2 >> (row - col + n)) & 1:
            count += _queens(n, row + 1, cols | 1 << col,
                             d1 | 1 << (row + col), d2 | 1 << (row - col + n))
    return count


def kernel() -> int:
    """Fixed pure-Python work: recursion, branches, integer arithmetic and an int-keyed dict."""
    table: dict[int, int] = {}
    for i in range(40000):
        key = i % 8633
        table[key] = table.get(key, 0) + i * 3 % 11
    return _queens(9) + len(table)


class SpeedSampler:
    """Times calls at a nominal machine speed; install once per process."""

    def __init__(self):
        self._samples: list[float] = []
        self._kernel_s = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self._samples.append(dt)
        return dt

    def _on_alarm(self, _signum, _frame) -> None:
        if self._active:
            self._kernel_s += self._sample()

    def time(self, fn):
        """Call ``fn``; return (raw seconds, seconds at nominal speed, its result)."""
        self._samples, self._kernel_s = [], 0.0
        self._sample()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
            elapsed = time.perf_counter() - t0
        self._sample()
        raw = elapsed - self._kernel_s
        return raw, raw * REFERENCE_S / statistics.fmean(self._samples), result
