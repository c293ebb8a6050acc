"""Calibration kernel: a machine-speed probe that never imports hopf_dde.

The host runs the same code at speeds up to about 1.7x apart, and it
switches between them every few seconds, also in the middle of an op.
The kernel is a small RK4 loop on 4-vectors in the same
interpreter-plus-numpy style as the package's hot paths, so its time
moves with the op's time. `OpClock` runs the kernel before, during
(every INTERVAL_S, from SIGALRM) and after an op, and reports the op in
calibrated seconds: the op's own raw seconds times the mean of
REF_KERNEL_S / k over those kernel times k.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time that defines one calibrated second: the fastest level seen on
# the tuning host (2-core Xeon, CPython 3.11, numpy 2.4; 2.2-4.0 ms under
# load). A constant, so runs and commits stay comparable.
REF_KERNEL_S = 0.0022
# Sampling the kernel inside the op, not only next to it, is what makes the
# full ratio work: over 150 s of repeated preset ops on the tuning host, the
# per-op spread (IQR / median) of n2 / n4 / coarse n163 was 3.5 / 1.8 / 2.1 %,
# against 7.1 / 5.4 / 3.6 % for the best exponent (0.5) of the ratio taken
# from kernels before and after the op only.
INTERVAL_S = 0.1
_STEPS = 100
_SAMPLES = 7


class HardStop(BaseException):
    """Raised inside an op whose calibrated time passed its limit."""


def _rhs(y, d):
    return np.array([1.0 - 0.8 * y[0],
                     y[0] - (0.13 + 0.02 * d[3]) * y[1],
                     d[1] ** 2 / (4.0 + d[1] ** 2) - 0.01 * y[2],
                     y[2] - (0.13 + 0.02 * d[1]) * y[3]])


def _kernel_once() -> float:
    y = np.array([1.25, 2.0, 30.0, 40.0])
    d = y.copy()
    h = 0.05
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        k1 = _rhs(y, d)
        k2 = _rhs(y + 0.5 * h * k1, d)
        k3 = _rhs(y + 0.5 * h * k2, d)
        k4 = _rhs(y + h * k3, d)
        ynew = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(ynew)) or np.max(np.abs(ynew)) > 1e12:
            raise ArithmeticError("calibration kernel diverged")
        d = 0.5 * (d + y)
        y = ynew
    return time.perf_counter() - t0


def kernel_time() -> float:
    """Median of a few kernel runs, in seconds (about 25 ms in total)."""
    return statistics.median(_kernel_once() for _ in range(_SAMPLES))


def raw_limit(cal_s: float, k_now: float) -> float:
    """Raw seconds that correspond to cal_s at kernel time k_now."""
    return cal_s * k_now / REF_KERNEL_S


class OpClock:
    """Times the block it wraps in calibrated seconds.

    The kernel samples taken during the block are left out of its raw
    time. With a limit, HardStop is raised inside the block once its
    calibrated time passes the limit.
    """

    def __init__(self, k_before: float, limit: float | None = None):
        self.factors = [REF_KERNEL_S / k_before]
        self.limit = limit
        self.sampling = 0.0
        self.raw = 0.0

    def _elapsed(self, now: float) -> float:
        return now - self.t0 - self.sampling

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.factors.append(REF_KERNEL_S / _kernel_once())
        self.sampling += time.perf_counter() - t
        if self.limit is not None and self.cal(time.perf_counter()) > self.limit:
            raise HardStop
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = self._elapsed(time.perf_counter())
        return False

    def cal(self, now: float | None = None) -> float:
        """Calibrated seconds of the block, so far if it is still running."""
        raw = self.raw if now is None else self._elapsed(now)
        return raw * statistics.fmean(self.factors)

    def finish(self, k_after: float) -> float:
        """Calibrated seconds of the finished block, given the kernel after it."""
        self.factors.append(REF_KERNEL_S / k_after)
        return self.cal()
