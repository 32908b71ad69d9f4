"""Host-speed calibration for timings taken on a shared machine.

On a shared VM the same code runs up to about 1.5x slower for seconds to
minutes at a time, because of load the benchmark cannot see.  A fixed
kernel timed right before and right after each measured interval tracks
that speed.  Scaling the interval by ``REFERENCE_S / kernel time`` gives its
duration at the reference speed.  The kernel is the benchmark's own code,
so a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-vCPU VM the benchmark was tuned on; it only
# sets the scale, so calibrated values read like wall times there.
REFERENCE_S = 0.016
NUMPY_ROUNDS = 120
SCALAR_ROUNDS = 300


class Calibrator:
    """Times a fixed mix of work shaped like the pipeline's: small numpy
    operations (FFT, per-bin matmul, power, gain) and a Python loop over
    scalar series terms."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal((8, 1024))
        self.window = np.hanning(1024)
        self.demix = rng.standard_normal((513, 3, 8)) + 1j * rng.standard_normal((513, 3, 8))

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(NUMPY_ROUNDS):
            bins = np.fft.rfft(self.frames * self.window, axis=1)
            y = np.matmul(self.demix, bins.T[:, :, np.newaxis])[:, :, 0]
            power = np.abs(y) ** 2
            np.exp(-power / (1.0 + power.mean()))
        for r in range(SCALAR_ROUNDS):
            x = 3.0 + 0.01 * r
            term = total = 1.0
            for k in range(1, 120):
                term *= (k - 1.75) * x / (k * k)
                total += term
        return time.perf_counter() - start


class Stopwatch:
    """Adds up measured calls, in wall seconds and at the reference speed.

    Each call is bracketed by its own kernel timings, so a long measurement
    made of several calls follows the host's speed through it.  A call that
    raises is still counted.
    """

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.wall = 0.0
        self.scaled = 0.0

    def __call__(self, fn, *args, **kwargs):
        before = self.calibrator()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            self.wall += wall
            self.scaled += wall * 2.0 * REFERENCE_S / (before + self.calibrator())
