"""A yardstick for the host's speed, so that job times can be put on one scale.

On a shared VM the same job runs up to about twice as fast at one minute as
at another, and CPU time drifts with wall time, so neither repeats from run
to run.  ``SpeedProbe`` times passes of three fixed calibration kernels:

* a 2-D RK4 on tiny NumPy arrays (interpreter-bound, like the integrator);
* a vectorised ``sin`` over 100,000 points (memory- and ufunc-bound);
* dictionary and integer work in plain Python.

They share the library's instruction mix and none of its code, so a change
to the library cannot change their cost.  The probe times a few passes
between jobs, outside the timed region, and, while a job runs, one pass on
an interval timer (``SIGALRM``); the job's time excludes those passes, and
its speed is the mean pass time over its boundaries and the passes during
it.  A time at the reference speed is the measured time times
``REFERENCE_PASS_S`` over that mean.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# One pass at the reference speed: about its median on a 2-vCPU Xeon VM,
# Python 3.11, NumPy 2.4.
REFERENCE_PASS_S = 2.2e-3
BOUNDARY_PASSES = 3
SAMPLE_PERIOD_S = 0.05


def at_reference_speed(seconds: float, pass_s: float) -> float:
    """``seconds`` measured while a pass took ``pass_s``, rescaled to the reference speed."""
    return seconds * REFERENCE_PASS_S / pass_s


class SpeedProbe:
    def __init__(self, sample_during_jobs: bool = True):
        self.sample_during_jobs = sample_during_jobs
        self._grid = np.linspace(0.0, 1.0, 100_000)
        self._out = np.empty_like(self._grid)
        self.samples: list[tuple[float, float]] = []  # (wall, thread CPU) of passes on the timer
        self.spent: list[tuple[float, float, float]] = []  # (start, end, process CPU) of those passes
        if sample_during_jobs:
            # Installed for good: a pass the timer queued just before it was
            # disarmed still finds its handler.
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the timer interrupts

    def _kernels(self):
        x, h = np.array([1.0, 0.0]), 0.01

        def f(y):
            return np.array([y[1], -y[0] - 0.1 * y[1]])

        for _ in range(60):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        np.sin(self._grid, out=self._out)
        self._out.sum()

        table = {}
        for i in range(4_000):
            table[i % 97] = table.get(i % 97, 0) + i
        sorted(table.items())

    def one_pass(self) -> tuple[float, float]:
        """(wall, thread CPU) seconds of one pass.

        Thread CPU time, not process CPU time, so that threads the library
        leaves running do not slow the yardstick.
        """
        w0, c0 = time.perf_counter(), time.thread_time()
        self._kernels()
        return time.perf_counter() - w0, time.thread_time() - c0

    def between(self) -> tuple[float, float]:
        """Mean (wall, thread CPU) of a few passes, taken between jobs."""
        passes = [self.one_pass() for _ in range(BOUNDARY_PASSES)]
        return statistics.fmean(w for w, _ in passes), statistics.fmean(c for _, c in passes)

    def _on_timer(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(self.one_pass())
        self.spent.append((w0, time.perf_counter(), time.process_time() - c0))

    @contextlib.contextmanager
    def during(self):
        """Sample the speed on a timer inside the block; clears the last block's samples."""
        self.samples, self.spent = [], []
        if not self.sample_during_jobs:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def spent_within(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and process CPU seconds the timer's passes took between ``t0`` and ``t1``."""
        inside = [(end - start, cpu) for start, end, cpu in self.spent if start >= t0 and end <= t1]
        return sum(w for w, _ in inside), sum(c for _, c in inside)
