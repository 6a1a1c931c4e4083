"""In-run machine speed, for timings that hold still on a shared machine.

On a small shared VM the same code can run up to twice as slow for
minutes at a time, because of load outside this process. A fixed
calibration mix (a pure-Python loop, numpy calls on 3-vectors and numpy
on 2e4-row arrays: the three kinds of work handforge does) is timed
between CLI steps and after every pass. A run's timings are reported in
reference seconds: wall seconds times CAL_NOMINAL_S over the run's median
calibration time.
"""

from __future__ import annotations

import time

import numpy as np

CAL_NOMINAL_S = 0.08  # duration of one calibration mix on an unloaded machine
CAL_EVERY_S = 2.0  # calibrate after a step once this much time has passed
CAL_PER_PASS = 3  # calibrations after each pass


def calibration_mix():
    """Fixed work, about CAL_NOMINAL_S on an unloaded 2.1 GHz vCPU."""
    s = 0
    for i in range(100_000):
        s += (i * i) % 7
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 2.0])
    for _ in range(1500):
        np.dot(a, np.cross(a, b))
    x = np.linspace(0.0, 1.0, 60_000).reshape(-1, 3)
    for _ in range(20):
        np.einsum("ij,ij->i", x, np.cross(x, x[::-1]))
        np.arctan2(x[:, 0], x[:, 1])
    return s


class SpeedClock:
    """Calibration times of one run, and the conversion to reference seconds."""

    def __init__(self):
        self.durations: list[float] = []
        self._last = 0.0

    def calibrate(self, times: int = 1):
        for _ in range(times):
            start = time.perf_counter()
            calibration_mix()
            self._last = time.perf_counter()
            self.durations.append(self._last - start)

    def after_pass(self):
        self.calibrate(CAL_PER_PASS)

    def due(self) -> bool:
        return time.perf_counter() - self._last >= CAL_EVERY_S

    def speed(self) -> float:
        """Median machine speed of the run, 1.0 at the nominal calibration time."""
        return CAL_NOMINAL_S / float(np.median(self.durations))

    def reference_s(self, wall_s: float) -> float:
        return wall_s * self.speed()
