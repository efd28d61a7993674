"""The machine's speed, sampled while a repetition runs.

The benchmark's host is shared, and its speed drifts over tens of seconds
to minutes: the same p5 repetition took anywhere from 19 to 30 s, with CPU
time equal to wall time, and means of a fixed loop over 30 s windows spread
by about a sixth of their median. No run length the time budget allows
averages that out, so the benchmark measures the speed alongside the
program and reports times at a fixed reference speed.

The yardstick is `unit()`, a fixed piece of interpreted big-integer
arithmetic, the kind of work that dominates normtower. On this host,
windows of 10 s of units track windows of `smith_normal_form` and
`poly_mul` calls run in turn with them to within about 6% (interquartile
spread of the ratio), against 15% for the kernels' own times. A unit that
also made numpy calls on a small array tracked such kernels better in a
process of its own, but inside the full_grid repetition its numpy part
slowed with the program's state and its samples spread more than the wall
time. `Sampler` times one unit on SIGALRM every INTERVAL_S seconds inside
the process being timed, so it samples the core the program runs on, at
the moments the program runs. Sampling from the waiting parent instead
spread more: each sample there follows an idle sleep. A wall time `t` (the
samples' own time taken out) measured while a unit took
`u` seconds on average is reported as `t * REF_UNIT_S / u`: the time the
same work takes while a unit takes REF_UNIT_S. A change to the program
moves that figure in full; the machine's drift moves it much less.
"""

from __future__ import annotations

import signal
import statistics
from math import comb
from time import perf_counter

# The scale of every reported time: the time the work takes while a unit
# takes this long. Inside repetitions on a 2 vCPU Intel Xeon with Python
# 3.11.7 a unit took 1.3 to 1.8 ms, so reported times read 10-50% above
# wall times there. Changing it rescales every reported time.
REF_UNIT_S = 2.0e-3
INTERVAL_S = 0.1
CALIBRATION_UNITS = 25

_COEFFS = tuple(comb(60, k) for k in range(61))
_HALF = _COEFFS[:30]


def unit() -> int:
    """The yardstick: 18300 products of binomial coefficients of 60 (up to
    57 bits), summed into a growing integer in an interpreted loop."""
    s = 0
    for _ in range(10):
        for x in _COEFFS:
            for y in _HALF:
                s += x * y
    return s


def time_unit() -> float:
    t = perf_counter()
    unit()
    return perf_counter() - t


def calibrate(count: int = CALIBRATION_UNITS) -> float:
    """Mean time of `count` units run back to back."""
    return statistics.fmean(time_unit() for _ in range(count))


def to_reference(seconds: float, unit_s: float) -> float:
    """`seconds` measured while a unit took `unit_s`, at the reference speed."""
    return seconds * REF_UNIT_S / unit_s


class Sampler:
    """Times one unit every INTERVAL_S seconds of wall time, on SIGALRM.

    The handler runs in the main thread between bytecodes, so a long call
    into C delays a sample but is not interrupted; system calls interrupted
    by the signal are retried by Python."""

    def __init__(self) -> None:
        self.units: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.units.append(time_unit())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_s(self) -> float:
        """Time the samples took, to be taken out of the measured interval."""
        return sum(self.units)

    def unit_s(self) -> float:
        """Mean unit time over the samples."""
        return statistics.fmean(self.units)
