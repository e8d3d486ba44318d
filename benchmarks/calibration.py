"""Times measured on a drifting host, brought to one reference speed.

The shared host's speed drifts by up to +-20% over tens of seconds, for pure
Python and numpy code alike, so raw times of the same code differ more from
run to run than a regression bound allows. While a timed block runs, a SIGALRM
timer runs a fixed job every CALIBRATION_INTERVAL_S and times it: a pure-Python
loop, then normals drawn into and exp taken over an array larger than a core's
L2 cache, as the program's own numpy work does. The samples are evenly spread
over the block, so their mean (trimmed of outliers) is the machine's average
slowness during that very block. A time is reported as what it would have been
at the speed where the job takes REFERENCE_JOB_S, so a program change that
saves x% of a block still saves x% of its reported time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_LOOP = 25_000
CALIBRATION_ARRAY = 131_072     # float64s: 1 MiB
REFERENCE_JOB_S = 0.005     # about the job's time on the 2-core VM the bounds come from
TRIM = 0.1                  # share of samples dropped at each end before the mean

_RNG = np.random.Generator(np.random.Philox(0))
_DRAWS = np.empty(CALIBRATION_ARRAY)
_WORK = np.empty(CALIBRATION_ARRAY)


def _calibration_job():
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    _RNG.standard_normal(out=_DRAWS)
    np.multiply(_DRAWS, _DRAWS, out=_WORK)
    np.multiply(_WORK, -0.5, out=_WORK)
    np.exp(_WORK, out=_WORK)
    return total + float(_WORK.sum())


class Calibration:
    """Samples the job's time on a SIGALRM timer while the block runs (main thread only).

    A block that runs in a child process is bracketed with sample() instead:
    jobs run beside the child (on a 2-CPU host, maybe on its core's sibling)
    slow down with it and misread the speed.
    """

    def __init__(self):
        self.samples = []

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            _calibration_job()
            self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.samples = []
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scaled(self, seconds, jobs_inside=True):
        """seconds at the reference speed.

        jobs_inside: the block ran in this thread, so the jobs' own time is
        part of it and is taken out first.
        """
        if not self.samples:
            raise RuntimeError(f"block shorter than {CALIBRATION_INTERVAL_S} s: no speed sample")
        if jobs_inside:
            seconds -= sum(self.samples)
        return seconds * REFERENCE_JOB_S / self.job_s()

    def job_s(self):
        """Mean job time with the TRIM share of samples dropped at each end."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return statistics.mean(ordered[cut:len(ordered) - cut])
