"""The reference speed: a fixed calibration kernel and the clock that uses it.

The machine's speed drifts from second to second, so times are scaled to a
reference speed: ``REF_CAL_S`` seconds for one run of :func:`calibrate`.
A time measured between two calibrations ``c1`` and ``c2`` counts as
``t * REF_CAL_S / ((c1 + c2) / 2)`` reference seconds.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

SEGMENT_S = 0.5
REF_CAL_S = 0.03          # kernel seconds that define the reference speed
SETTLED_CALS = 3          # calibrations behind one settled reading

_CAL = np.random.default_rng(0).normal(size=(26, 40))


def calibrate() -> float:
    """Seconds for a fixed piece of work shaped like the library's hot loops.

    It builds a small stacked design row by row with scalar indexing, solves
    it three ways, and draws seeded permutations: the same mix of
    interpreter, small-array numpy and LAPACK work as selection and Moran.
    It runs in the workload process between passes, and in ``run.py`` just
    before a set-up, so it sees the same machine speed as the timed work,
    and it uses no gnarlib code, so no change to the library can move it.
    """
    t0 = time.perf_counter()
    for rep in range(8):
        rows, ys = [], []
        for t in range(5, 40):
            for i in range(26):
                y = _CAL[i, t]
                if math.isnan(y):
                    continue
                row = np.zeros(8)
                for j in range(1, 6):
                    row[j - 1] = _CAL[i, t - j]
                row[5:] = _CAL[(i + 1) % 26, t - 1:t - 4:-1]
                rows.append(row)
                ys.append(y)
        design, resp = np.asarray(rows), np.asarray(ys)
        np.linalg.qr(design)
        np.linalg.lstsq(design, resp, rcond=None)
        np.linalg.inv(design.T @ design)
        for r in range(100):
            np.random.default_rng([rep, r]).permutation(26)
    return time.perf_counter() - t0


class SpeedClock:
    """Times a pass in segments of at least ``SEGMENT_S``, calibrating between them.

    ``lap`` is called after every operation.  Once the open segment is long
    enough it is closed and the calibration kernel runs, outside the timed
    time.  Each segment is then scaled by ``REF_CAL_S`` over the mean of the
    calibrations on either side of it, which removes most of the drift in
    machine speed from second to second.

    ``exponent`` damps the scaling for work that a slower machine slows
    less than the kernel: a segment counts as ``sec * (REF_CAL_S / cal) **
    exponent``.
    """

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.cal = calibrate()
        self.segments: list[tuple[float, float]] = []   # (seconds, calibration)
        self.t0 = time.perf_counter()

    def lap(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self.t0 >= SEGMENT_S:
            cal = calibrate()
            self.segments.append((now - self.t0, (self.cal + cal) / 2))
            self.cal = cal
            self.t0 = time.perf_counter()

    def restart(self) -> None:
        self.segments = []
        self.t0 = time.perf_counter()

    def wall(self) -> float:
        return sum(sec for sec, _ in self.segments)

    def scaled(self) -> float:
        return sum(sec * (REF_CAL_S / cal) ** self.exponent for sec, cal in self.segments)


def settled() -> float:
    """Median of ``SETTLED_CALS`` calibrations after one discarded warm-up.

    The first calibration in a process pays first-call costs, so it is
    not used.
    """
    calibrate()
    return statistics.median(calibrate() for _ in range(SETTLED_CALS))
