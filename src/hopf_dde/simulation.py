"""Direct integration of the delay system and orbit reconstruction.

Fixed-step classical RK4 by the method of steps: the step divides the
delay exactly, so every delayed lookup falls on the already-computed part
of the grid (or in the prescribed history) and is evaluated by cubic
Hermite interpolation from stored states and derivatives, keeping the
overall order four. Delayed values for the two internal stages share the
midpoint lookup.

The step loop works on Python floats: the state lives in four locals, the
delayed lookups return only y1 and y2 (the model uses nothing else), and
the stored arrays are read and written through flat memoryviews. This
does the same floating-point operations in the same order as RK4 on numpy
4-vectors, so the output is the same to the bit, without allocating small
arrays at every stage.

The history on [-tau, 0] is stored as uniform samples plus derivative
samples and interpolated the same way, so histories built from smooth
functions retain O(step^4) accuracy.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .equilibrium import Equilibrium
from .errors import DivergenceError, DomainError
from .model import IY1, IY2, ModelParams, field
from .normal_form import Eigenpair, FormulaVariants, NormalForm, make_w_evaluators

_BLOWUP_NORM = 1e12
_MAX_STEPS = 100_000_000


def _hermite_weights(s: float, h: float) -> tuple[float, float, float, float]:
    """Cubic Hermite basis at s in [0, 1]; the derivative weights carry h."""
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2, s * (1.0 - s) ** 2 * h,
            s * s * (3.0 - 2.0 * s), s * s * (s - 1.0) * h)


def _hermite(s: float, y0, y1, f0, f1, h: float):
    w0, w1, w2, w3 = _hermite_weights(s, h)
    return w0 * y0 + w1 * f0 + w2 * y1 + w3 * f1


@dataclasses.dataclass(frozen=True)
class History:
    """Initial data on [-tau, 0]: uniform samples and derivative samples."""

    tau: float
    step: float
    states: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        m = len(self.states) - 1
        if m < 1 or abs(m * self.step - self.tau) > 1e-9 * max(self.tau, 1.0):
            raise DomainError("history grid step must divide tau exactly")
        if self.derivs.shape != self.states.shape:
            raise DomainError("history derivative block must match samples")

    @classmethod
    def constant(cls, state: np.ndarray, tau: float, segments: int = 64) -> "History":
        state = np.asarray(state, dtype=float)
        m = max(1, int(segments))
        reps = np.tile(state, (m + 1, 1))
        return cls(tau=float(tau), step=float(tau) / m,
                   states=reps, derivs=np.zeros_like(reps))

    @classmethod
    def from_function(cls, fn, tau: float, segments: int = 64) -> "History":
        """Sample a vector function of t on [-tau, 0].

        Node derivatives come from fourth-order finite differences, so the
        Hermite representation keeps O(step^4) interpolation error for
        smooth fn. Needs at least 4 segments.
        """
        m = int(segments)
        if m < 4:
            raise DomainError("from_function needs at least 4 segments")
        h = float(tau) / m
        ts = -float(tau) + h * np.arange(m + 1)
        st = np.array([np.asarray(fn(t), dtype=float) for t in ts])
        d = np.empty_like(st)
        # five-point stencils: centered inside, one-sided at the edges
        d[2:-2] = (st[:-4] - 8.0 * st[1:-3] + 8.0 * st[3:-1] - st[4:]) / (12.0 * h)
        d[0] = (-25.0 * st[0] + 48.0 * st[1] - 36.0 * st[2]
                + 16.0 * st[3] - 3.0 * st[4]) / (12.0 * h)
        d[1] = (-3.0 * st[0] - 10.0 * st[1] + 18.0 * st[2]
                - 6.0 * st[3] + st[4]) / (12.0 * h)
        d[-2] = (3.0 * st[-1] + 10.0 * st[-2] - 18.0 * st[-3]
                 + 6.0 * st[-4] - st[-5]) / (12.0 * h)
        d[-1] = (25.0 * st[-1] - 48.0 * st[-2] + 36.0 * st[-3]
                 - 16.0 * st[-4] + 3.0 * st[-5]) / (12.0 * h)
        return cls(tau=float(tau), step=h, states=st, derivs=d)

    def value(self, t: float) -> np.ndarray:
        """Hermite-interpolated state at t in [-tau, 0]."""
        if t < -self.tau - 1e-9 or t > 1e-9:
            raise DomainError(f"history queried outside [-tau, 0]: t={t!r}")
        x = (min(0.0, max(t, -self.tau)) + self.tau) / self.step
        j = min(int(x), len(self.states) - 2)
        s = x - j
        if s < 1e-13:
            return self.states[j]
        return _hermite(s, self.states[j], self.states[j + 1],
                        self.derivs[j], self.derivs[j + 1], self.step)


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Computed solution samples with dense-output data."""

    t: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    tau: float
    step: float

    def component(self, idx: int) -> np.ndarray:
        return self.states[:, idx]

    def value(self, time: float) -> np.ndarray:
        """Dense Hermite evaluation between stored samples."""
        if time < self.t[0] - 1e-9 or time > self.t[-1] + 1e-9:
            raise DomainError(f"time {time!r} outside the computed range")
        x = min(max(time, self.t[0]), self.t[-1]) / self.step
        j = min(int(x), len(self.t) - 2)
        h = self.t[j + 1] - self.t[j]
        s = (time - self.t[j]) / h
        return _hermite(s, self.states[j], self.states[j + 1],
                        self.derivs[j], self.derivs[j + 1], h)


def integrate(p: ModelParams, tau: float, history: History,
              t_end: float, step: float) -> Trajectory:
    """Method-of-steps RK4 over [0, t_end].

    step must divide tau exactly (so delayed lookups never cross the
    moving front). A final shorter step is taken when t_end is not a
    multiple of step; the last node then sits at t_end. Raises
    DivergenceError when the history holds non-finite values, or when the
    state norm exceeds 1e12 or turns non-finite.
    """
    if tau <= 0.0:
        raise DomainError(f"delay must be positive, got {tau!r}")
    if step <= 0.0 or step > tau:
        raise DomainError(f"step must lie in (0, tau], got {step!r}")
    m = int(round(tau / step))
    if m < 1 or abs(m * step - tau) > 1e-9 * max(tau, 1.0):
        raise DomainError(f"step {step!r} does not divide the delay {tau!r}")
    if history.tau < tau - 1e-9 * max(tau, 1.0):
        raise DomainError("history does not cover [-tau, 0]")
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    n_full = int(t_end / step + 1e-9)
    rem = t_end - n_full * step
    if rem < 1e-12 * max(t_end, 1.0):
        rem = 0.0
    N = n_full + (1 if rem > 0.0 else 0)
    if N > _MAX_STEPS:
        raise DomainError(f"{N} steps exceed the {_MAX_STEPS} budget")
    if not (np.all(np.isfinite(history.states))
            and np.all(np.isfinite(history.derivs))):
        raise DivergenceError("history holds non-finite values")

    # zeros, not empty: rounding can put a lookup at the newest node just
    # past the s < 1e-13 shortcut, so its Hermite weights reach the next,
    # unwritten node (with weights of order s^2); that node must hold zero,
    # not whatever the allocator left there
    states = np.zeros((N + 1, 4))
    derivs = np.zeros((N + 1, 4))
    states[0] = history.value(0.0)
    # flat views: indexing them reads and writes Python floats directly
    sv = memoryview(states).cast("B").cast("d")
    dv = memoryview(derivs).cast("B").cast("d")

    def delayed(tq: float) -> tuple[float, float]:
        """y1 and y2 at time tq, which lies behind the moving front."""
        if tq <= 0.0:
            v = history.value(tq)
            return float(v[IY1]), float(v[IY2])
        x = tq / step
        j = int(x)
        s = x - j
        k = 4 * j
        if s < 1e-13:
            return sv[k + 1], sv[k + 3]
        w0, w1, w2, w3 = _hermite_weights(s, step)
        return (w0 * sv[k + 1] + w1 * dv[k + 1] + w2 * sv[k + 5] + w3 * dv[k + 5],
                w0 * sv[k + 3] + w1 * dv[k + 3] + w2 * sv[k + 7] + w3 * dv[k + 7])

    x1, y1, x2, y2 = sv[0], sv[1], sv[2], sv[3]
    for i in range(N):
        h = step if i < n_full else rem
        t = i * step
        y1d, y2d = delayed(t - tau)
        k1a, k1b, k1c, k1d = field(x1, y1, x2, y2, y1d, y2d, p)
        k = 4 * i
        dv[k], dv[k + 1], dv[k + 2], dv[k + 3] = k1a, k1b, k1c, k1d
        y1m, y2m = delayed(t + 0.5 * h - tau)
        hh = 0.5 * h
        k2a, k2b, k2c, k2d = field(x1 + hh * k1a, y1 + hh * k1b,
                                   x2 + hh * k1c, y2 + hh * k1d, y1m, y2m, p)
        k3a, k3b, k3c, k3d = field(x1 + hh * k2a, y1 + hh * k2b,
                                   x2 + hh * k2c, y2 + hh * k2d, y1m, y2m, p)
        y1d, y2d = delayed(t + h - tau)
        k4a, k4b, k4c, k4d = field(x1 + h * k3a, y1 + h * k3b,
                                   x2 + h * k3c, y2 + h * k3d, y1d, y2d, p)
        h6 = h / 6.0
        x1 = x1 + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y1 = y1 + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        x2 = x2 + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        y2 = y2 + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        # NaN fails every comparison, so this also rejects non-finite states
        if not (abs(x1) <= _BLOWUP_NORM and abs(y1) <= _BLOWUP_NORM
                and abs(x2) <= _BLOWUP_NORM and abs(y2) <= _BLOWUP_NORM):
            raise DivergenceError(
                f"trajectory diverged at t={(t + h):.6g} (step {i})")
        sv[k + 4], sv[k + 5], sv[k + 6], sv[k + 7] = x1, y1, x2, y2
    # after a partial step the last node sits at t_end, and the last k4
    # lookup (at t_end - tau) already is its delayed state
    if rem == 0.0:
        y1d, y2d = delayed(N * step - tau)
    k = 4 * N
    dv[k], dv[k + 1], dv[k + 2], dv[k + 3] = field(x1, y1, x2, y2, y1d, y2d, p)

    ts = np.empty(N + 1)
    ts[:n_full + 1] = np.arange(n_full + 1) * step
    if rem > 0.0:
        ts[N] = t_end
    return Trajectory(t=ts, states=states, derivs=derivs, tau=tau, step=step)


def make_z_path(lambda1: complex, nf: NormalForm, z0: complex,
                t_end: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the reduced equation z' = lambda1 z + g(z, zbar).

    g truncates at the computed projections: g20 z^2/2 + g11 z zbar
    + g02 zbar^2/2 + g21 z^2 zbar / 2. Plain RK4; returns (times, z).
    """
    if step <= 0.0 or t_end <= 0.0:
        raise DomainError("step and t_end must be positive")
    n = int(math.ceil(t_end / step - 1e-12))

    def f(z: complex) -> complex:
        zb = z.conjugate()
        return (lambda1 * z + 0.5 * nf.g20 * z * z + nf.g11 * z * zb
                + 0.5 * nf.g02 * zb * zb + 0.5 * nf.g21 * z * z * zb)

    ts = np.empty(n + 1)
    zs = np.empty(n + 1, dtype=complex)
    ts[0], zs[0] = 0.0, z0
    z, t = complex(z0), 0.0
    for i in range(n):
        h = min(step, t_end - t)
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if not (np.isfinite(z.real) and np.isfinite(z.imag)) or abs(z) > _BLOWUP_NORM:
            raise DivergenceError(f"reduced flow diverged at t={t:.6g}")
        ts[i + 1], zs[i + 1] = t, z
    return ts, zs


def reconstruct_center_manifold(nf: NormalForm, ep: Eigenpair, eq: Equilibrium,
                                ts: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Physical states along a reduced path z(t).

    X(t) = X0 + z Phi(0) + zbar Phibar(0) + w20(0) z^2 / 2
           + w11(0) z zbar + w02(0) zbar^2 / 2
    with w02 = conj(w20). Returns an (len(ts), 4) real array.
    """
    if len(ts) != len(zs):
        raise DomainError("times and z path must have equal length")
    omega_c = float(ep.lambda1.imag)
    w20f, w11f = make_w_evaluators(ep, nf.g20, nf.g11, nf.g02,
                                   nf.E1, nf.E2, omega_c, FormulaVariants())
    w20_0 = np.array([w20f(i, 0.0) for i in range(4)])
    w11_0 = np.array([w11f(i, 0.0) for i in range(4)])
    x0 = eq.state()
    out = np.empty((len(ts), 4))
    for i, z in enumerate(zs):
        zb = z.conjugate()
        vec = (z * ep.v + zb * np.conj(ep.v)
               + 0.5 * w20_0 * z * z + w11_0 * (z * zb)
               + 0.5 * np.conj(w20_0) * zb * zb)
        out[i] = x0 + vec.real
    return out


def upward_crossings(ts: np.ndarray, vals: np.ndarray, level: float = 0.0) -> np.ndarray:
    """Times where vals crosses level from below, linearly interpolated."""
    v = np.asarray(vals, dtype=float) - level
    idx = np.nonzero((v[:-1] < 0.0) & (v[1:] >= 0.0))[0]
    out = []
    for i in idx:
        s = v[i] / (v[i] - v[i + 1])
        out.append(ts[i] + s * (ts[i + 1] - ts[i]))
    return np.array(out)


def oscillation_summary(ts: np.ndarray, vals: np.ndarray) -> dict:
    """Period and cycle-amplitude statistics of the trailing oscillation.

    Uses upward crossings of the mean level over the last half of the
    record; amplitude variation is (max - min)/mean of per-cycle peak-to-
    trough amplitudes over the last quarter. Returns NaNs when fewer than
    three full cycles are available.
    """
    n = len(ts)
    half = slice(n // 2, n)
    level = float(np.mean(vals[half]))
    cr = upward_crossings(ts[half], vals[half], level)
    out = {"period": math.nan, "amp_variation": math.nan,
           "min": float(np.min(vals[half])), "max": float(np.max(vals[half]))}
    if len(cr) < 4:
        return out
    periods = np.diff(cr)
    out["period"] = float(np.mean(periods))
    # per-cycle amplitudes over the last quarter of the cycles
    q = max(3, len(cr) * 3 // 4)
    amps = []
    for c0, c1 in zip(cr[q - 1:-1], cr[q:]):
        mask = (ts >= c0) & (ts <= c1)
        if np.count_nonzero(mask) > 2:
            seg = vals[mask]
            amps.append(float(np.max(seg) - np.min(seg)))
    if len(amps) >= 2 and np.mean(amps) > 0.0:
        out["amp_variation"] = float((np.max(amps) - np.min(amps)) / np.mean(amps))
    return out
