"""The reference slice: a fixed piece of pure-Python Fraction arithmetic
whose CPU time is the benchmark's yardstick.

The machine this benchmark was written on changes speed by up to 2x over
tens of seconds, so raw CPU seconds of two runs of the same code disagree by
more than the regressions worth catching.  The slice slows down with the
machine.  It is sampled *during* each operation from an ITIMER_PROF signal
handler, the slices' own CPU time is subtracted from the operation, and the
operation's time is reported as

    net CPU seconds / mean slice seconds * NOMINAL_SLICE_S

which reads as seconds on a machine where one slice takes NOMINAL_SLICE_S.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The unit: about the mean CPU seconds of one slice sampled during the
# operations on the reference machine (2-core x86-64, Python 3.11), so that
# normalized seconds read close to raw seconds there.  Back to back with
# warm caches a slice takes about 0.7 ms.
NOMINAL_SLICE_S = 0.0011

# CPU seconds between two samples taken during an operation.
SAMPLE_INTERVAL_S = 0.02

_MATRIX = ((3, -1, 4, 1, -5, 9, 2),
           (6, 5, -3, 5, 8, -9, 7),
           (9, 3, 2, -3, 8, 4, -6),
           (2, 6, 4, -3, 3, 8, 3),
           (2, -7, 9, 5, 0, 2, 8))


def ref_slice():
    """Gauss-Jordan elimination of a fixed 5x7 integer matrix over Q plus a
    harmonic sum: the same mix of small-integer gcds and Python-level loops
    that the exact kernel runs."""
    rows = [[Fraction(x) for x in r] for r in _MATRIX]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    h = Fraction(0)
    for k in range(1, 60):
        h += Fraction(1, k)
    return rows, h


def timed_slice():
    t0 = time.thread_time()
    ref_slice()
    return time.thread_time() - t0


class SliceSampler:
    """Runs the reference slice every SAMPLE_INTERVAL_S of process CPU time
    while armed, recording each slice's CPU seconds.

    Times are read from the thread CPU clock: while ITIMER_PROF is armed,
    Linux serves the process CPU clock from the group timer, which only
    advances at scheduler ticks, so a 1 ms slice would read as 0 or 4 ms.
    All the work runs on the main thread (BLAS is pinned to one thread)."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None

    def _on_tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(timed_slice())
        finally:
            self._busy = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False


def measure(fn):
    """Call fn() with slices sampled during it and one slice after it.

    Returns (result, normalized seconds, raw net CPU seconds)."""
    sampler = SliceSampler()
    with sampler:
        t0 = time.thread_time()
        result = fn()
        t1 = time.thread_time()
    inside = list(sampler.samples)
    net = (t1 - t0) - sum(inside)
    slices = inside + [timed_slice()]
    return result, normalize(net, slices), net


def normalize(cpu_s, slices):
    return cpu_s / statistics.fmean(slices) * NOMINAL_SLICE_S
