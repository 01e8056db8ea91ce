"""Rescaling measured times to the machine's quiet speed.

The host shares its cores with other tenants, and the speed of this
process swings by up to 2x in spells of several seconds, which no run
length affordable here averages out.  A probe therefore times
``calibrate()``, a fixed piece of mpmath arithmetic like the program's
own, alongside the program.  A stretch of program time measured while
the calibration took c seconds is rescaled by REFERENCE_S / c: the
result is what the stretch would have taken at the speed at which the
calibration takes REFERENCE_S, a quiet moment on this machine.  The
calibration is benchmark code, so a change to the program moves the
rescaled time as it moves the raw one; only a change of mpmath's own
backend (``mpmath.libmp.BACKEND``, printed with every run) would move
the yardstick.
"""

from __future__ import annotations

import signal
import time

from mpmath import mp, mpc, mpf

#: calibrate()'s time in a quiet moment on the reference machine (2-core
#: Intel Xeon at 2.0 GHz, Python 3.11, mpmath's pure-Python backend)
REFERENCE_S = 0.8e-3
CALIBRATION_STEPS = 30


def calibrate() -> float:
    """Seconds taken by a fixed run of 300-bit complex mpmath arithmetic."""
    t0 = time.perf_counter()
    with mp.workprec(300):
        x = mpc(1, 2) / 3
        for i in range(CALIBRATION_STEPS):
            x = x * x / (x + 1) + mpf(i)
    return time.perf_counter() - t0


def quickest(n: int = 3) -> float:
    """The fastest of n calibrations, for a one-off reading."""
    return min(calibrate() for _ in range(n))


class SpeedProbe:
    """Calibrates every PERIOD_S while the program runs, from a SIGALRM
    interval timer in the main thread; use as a context manager.  Each
    sample is the quicker of two calibrations in a row, which drops most
    of the jitter of a first run on caches the program has just used."""

    PERIOD_S = 0.2

    def __init__(self):
        self.samples = []  # (start, end, calibration seconds)

    def _sample(self, *_):
        start = time.perf_counter()
        duration = quickest(2)
        self.samples.append((start, time.perf_counter(), duration))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def rescaled_s(self) -> float:
        """Program time between the first and the last sample, without
        the calibrations, each stretch rescaled by the mean of the two
        samples around it."""
        total = 0.0
        for (_, end, c0), (start, _, c1) in zip(self.samples, self.samples[1:]):
            total += (start - end) * REFERENCE_S / ((c0 + c1) / 2)
        return total

    def median_s(self) -> float:
        return sorted(s[2] for s in self.samples)[len(self.samples) // 2]
