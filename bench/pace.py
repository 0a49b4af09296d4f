"""A fixed reference kernel that paces the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: for seconds to
minutes at a time every job runs up to twice as slow, on CPU time as much as
on wall time, and a run's statistics cannot absorb a slow period that covers
the whole run.  So while the untraced run times its jobs, a Pacer runs the
reference kernel below every PERIOD_S, from a SIGALRM handler, and every
timed interval is reported in units of the kernel's time measured in and
around it, scaled so that one measurement of the kernel counts REF_MS ms.
The handler interrupts long jobs too (between bytecodes), so a job of
several seconds is paced by the machine's speed throughout, not only at its
ends; the handler's own time is taken out of the interval.

The kernel is the benchmark's own code, not the program's: plain interpreter
work on lists, dicts and ints plus small numpy calls, the mix the program
spends its time on.  A change to the program moves the job time and not the
reference; a change in the machine's speed moves both.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter_ns

import numpy as np

REF_MS = 1.0      # one measurement, by definition; about its time on a quiet machine
REPS = 4          # kernel calls per measurement
PERIOD_S = 0.02   # between measurements while a Pacer runs
NEAR_NS = 100_000_000  # measurements this close to an interval also pace it
_MASK = np.arange(64) % 7 == 0


def _kernel() -> int:
    d, s = {}, 0
    table = [[0] * 32 for _ in range(32)]
    for i in range(32):
        row = table[i]
        for j in range(32):
            s += (i * j) % 5
            row[j] = s & 255
            d[(i, j & 7)] = s
    for k in range(40):
        idx = np.flatnonzero(_MASK)
        s += int(idx[k % len(idx)])
    return s


def ref_ns() -> int:
    """One measurement of the reference kernel, in ns."""
    t0 = perf_counter_ns()
    for _ in range(REPS):
        _kernel()
    return perf_counter_ns() - t0


class Pacer:
    """Measures the reference kernel every PERIOD_S while in its ``with``
    block, and converts intervals timed inside that block to paced ms."""

    def __init__(self) -> None:
        self.starts: list[int] = []  # start of each measurement, ascending
        self.ends: list[int] = []
        self.refs: list[int] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        ref = ref_ns()
        self.starts.append(start)
        self.refs.append(ref)
        self.ends.append(perf_counter_ns())

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick(signal.SIGALRM, None)  # so the last interval has one after it
        signal.signal(signal.SIGALRM, self._previous)

    def paced_ms(self, t0: int, t1: int) -> tuple[float, float]:
        """The interval [t0, t1] in paced ms, and its length in ms without
        the measurements inside it.  Call after the ``with`` block."""
        inside = range(bisect_left(self.starts, t0), bisect_left(self.starts, t1))
        near = range(bisect_left(self.starts, t0 - NEAR_NS), bisect_left(self.starts, t1 + NEAR_NS))
        own_ns = t1 - t0 - sum(self.ends[i] - self.starts[i] for i in inside)
        ref = sum(self.refs[i] for i in near) / len(near)
        return own_ns / ref * REF_MS, own_ns / 1e6
