"""Direct integration of the delay system and orbit reconstruction.

Fixed-step classical RK4 by the method of steps: the step divides the
delay exactly, so every delayed lookup falls on the already-computed part
of the grid (or in the prescribed history) and is evaluated by cubic
Hermite interpolation from stored states and derivatives, keeping the
overall order four. Delayed values for the two internal stages share the
midpoint lookup.

A lookup enters a step only through three numbers: the delayed
coefficients a1 + a12 y2(t - tau) and a2 + a21 y1(t - tau), and the Hill
term f(y1(t - tau)). The step loop runs the RK4 stages on Python floats
(the state in four locals, the stored arrays read and written through
flat memoryviews) and takes those numbers from one of two paths:

- per step: each lookup is made when the step needs it, with one Hill
  term per distinct lookup; a step's end lookup doubles as the next
  node's derivative lookup when the two times compare equal.
- per delay interval: on [k tau, (k+1) tau] every delayed value is
  already known, so for intervals of at least _PASS_MIN_STEPS steps (the
  measured crossover) one numpy pass makes the lookups of all the
  interval's steps but the last. That step runs per step: its end lookup
  sits on the interval's first node and may weigh in the node after it.

Both paths do the same floating-point operations in the same order as
RK4 on numpy 4-vectors built from model.rhs. The numpy pass calls the C
library's pow, log and exp (through np.float_power and math), as the
scalar code does, because numpy's own vectorized versions differ in the
last bit. So the trajectory is the same to the bit whichever path runs;
the tests pin both to that per-step reference.

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
from .model import IY1, IY2, ModelParams, _hill_log, _hill_log_many
from .normal_form import Eigenpair, FormulaVariants, NormalForm, make_w_evaluators

_BLOWUP_NORM = 1e12
_MAX_STEPS = 100_000_000
#: shortest delay interval, in steps, that integrate covers with one numpy
#: pass; shorter intervals look up their delayed values step by step. The
#: measured crossover: at 32 steps per interval the pass was about 5 %
#: slower than per-step lookups, at 40 about 6 % faster (2-core Xeon,
#: CPython 3.11, numpy 2.4)
_PASS_MIN_STEPS = 36


def _hermite_weights(s: float, h: float) -> tuple[float, float, float, float]:
    """Cubic Hermite basis at s in [0, 1]; the derivative weights carry h."""
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2, s * (1.0 - s) ** 2 * h,
            s * s * (3.0 - 2.0 * s), s * s * (s - 1.0) * h)


def _hermite_weights_many(s: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """_hermite_weights elementwise, to the bit.

    float_power calls the C library's pow, as a Python float's ** does;
    an ndarray's ** 2 multiplies, which differs in the last bit.
    """
    r = np.float_power(1.0 - s, 2.0)
    return ((1.0 + 2.0 * s) * r, s * r * h,
            s * s * (3.0 - 2.0 * s), s * s * (s - 1.0) * h)


def _hermite(w, y0, y1, f0, f1):
    w0, w1, w2, w3 = w
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
        return _hermite(_hermite_weights(s, self.step), self.states[j],
                        self.states[j + 1], self.derivs[j], self.derivs[j + 1])

    def values(self, ts: np.ndarray) -> np.ndarray:
        """value at each of the times ts, as a (len(ts), 4) array."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < -self.tau - 1e-9) or np.any(ts > 1e-9):
            raise DomainError("history queried outside [-tau, 0]")
        x = (np.minimum(0.0, np.maximum(ts, -self.tau)) + self.tau) / self.step
        j = np.minimum(x.astype(np.intp), len(self.states) - 2)
        s = (x - j)[:, None]
        out = _hermite(_hermite_weights_many(s, self.step), self.states[j],
                       self.states[j + 1], self.derivs[j], self.derivs[j + 1])
        return np.where(s < 1e-13, self.states[j], out)


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
        return _hermite(_hermite_weights(s, h), self.states[j],
                        self.states[j + 1], self.derivs[j], self.derivs[j + 1])


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
    a1, a2, a12, a21, b1, b2, n = p.a1, p.a2, p.a12, p.a21, p.b1, p.b2, p.n
    log_a = math.log(p.a)
    big, small = _BLOWUP_NORM, -_BLOWUP_NORM

    def coefs(tq: float) -> tuple[float, float, float]:
        """a1 + a12 y2d, a2 + a21 y1d and f(y1d) for the delayed state at
        tq, which lies behind the moving front."""
        if tq <= 0.0:
            v = history.value(tq)
            y1d, y2d = float(v[IY1]), float(v[IY2])
        else:
            x = tq / step
            j = int(x)
            s = x - j
            k = 4 * j + 1
            if s < 1e-13:
                y1d, y2d = sv[k], sv[k + 2]
            else:
                w0, w1, w2, w3 = _hermite_weights(s, step)
                y1d = w0 * sv[k] + w1 * dv[k] + w2 * sv[k + 4] + w3 * dv[k + 4]
                y2d = w0 * sv[k + 2] + w1 * dv[k + 2] + w2 * sv[k + 6] + w3 * dv[k + 6]
        return a1 + a12 * y2d, a2 + a21 * y1d, _hill_log(y1d, n, log_a)

    sy1, sy2 = states[:, IY1], states[:, IY2]
    dy1, dy2 = derivs[:, IY1], derivs[:, IY2]

    def on_grid(tq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y1 and y2 at each of the times tq in (0, front]."""
        x = tq / step
        j = x.astype(np.intp)
        s = x - j
        w = _hermite_weights_many(s, step)
        y1d = _hermite(w, sy1[j], sy1[j + 1], dy1[j], dy1[j + 1])
        y2d = _hermite(w, sy2[j], sy2[j + 1], dy2[j], dy2[j + 1])
        on_node = s < 1e-13
        if on_node.any():
            y1d[on_node], y2d[on_node] = sy1[j[on_node]], sy2[j[on_node]]
        return y1d, y2d

    def delayed_many(tq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y1 and y2 at each of the times tq, all behind the moving front."""
        past = tq <= 0.0
        if not past.any():
            return on_grid(tq)
        y1d, y2d = np.empty(len(tq)), np.empty(len(tq))
        y1d[~past], y2d[~past] = on_grid(tq[~past])
        v = history.values(tq[past])
        y1d[past], y2d[past] = v[:, IY1], v[:, IY2]
        return y1d, y2d

    def interval_pass(i0: int, i1: int) -> list:
        """coefs of the full steps i0..i1-1 in one numpy pass.

        Row r holds step i0 + r's coefs at its midpoint, at its end and at
        the next node's derivative lookup. i1 stops short of the delay
        interval's last step, so these lookups read nodes up to i0 only,
        all final: the per-step path reads the same values.
        """
        t = np.arange(i0, i1) * step
        tqe = t + step - tau
        tqn = np.arange(i0 + 1, i1 + 1) * step - tau
        # most next-node lookups repeat the end lookup at the same time
        own = tqn != tqe
        y1d, y2d = delayed_many(np.concatenate((t + 0.5 * step - tau, tqe, tqn[own])))
        c = np.stack((a1 + a12 * y2d, a2 + a21 * y1d, _hill_log_many(y1d, n, log_a)))
        L = i1 - i0
        cn = c[:, L:2 * L].copy()
        cn[:, own] = c[:, 2 * L:]
        return np.concatenate((c[:, :L], c[:, L:2 * L], cn)).T.tolist()

    x1, y1, x2, y2 = sv[0], sv[1], sv[2], sv[3]
    c1n, c2n, fn = coefs(-tau)
    k1a = 1.0 - b1 * x1
    k1b = x1 - c1n * y1
    k1c = fn - b2 * x2
    k1d = x2 - c2n * y2
    dv[0], dv[1], dv[2], dv[3] = k1a, k1b, k1c, k1d
    h, hh, h6 = step, 0.5 * step, step / 6.0
    # steps r0..r1-1 take their coefs from rows; a pass may start at step
    # pass_at, the first step of a delay interval
    rows, r0, r1 = [], 0, 0
    pass_at = 0 if m >= _PASS_MIN_STEPS else N
    for i in range(N):
        if i == n_full:
            h, hh, h6 = rem, 0.5 * rem, rem / 6.0
        if i == pass_at:
            pass_at = i + m
            if min(pass_at, N) - i >= _PASS_MIN_STEPS:
                # the interval's last step (and so a partial final step)
                # runs step by step: its end lookup sits on node i, and
                # may weigh in node i + 1, which the pass has not computed
                r0, r1 = i, min(pass_at, N) - 1
                rows = interval_pass(r0, r1)
        if i < r1:
            c1m, c2m, fm, c1e, c2e, fe, c1n, c2n, fn = rows[i - r0]
        else:
            t = i * step
            c1m, c2m, fm = coefs(t + 0.5 * h - tau)
            tqe = t + h - tau
            c1e, c2e, fe = coefs(tqe)
        # RK4 stages; k1 is the derivative stored at the current node
        u1 = x1 + hh * k1a
        v1 = y1 + hh * k1b
        u2 = x2 + hh * k1c
        v2 = y2 + hh * k1d
        k2a = 1.0 - b1 * u1
        k2b = u1 - c1m * v1
        k2c = fm - b2 * u2
        k2d = u2 - c2m * v2
        u1 = x1 + hh * k2a
        v1 = y1 + hh * k2b
        u2 = x2 + hh * k2c
        v2 = y2 + hh * k2d
        k3a = 1.0 - b1 * u1
        k3b = u1 - c1m * v1
        k3c = fm - b2 * u2
        k3d = u2 - c2m * v2
        u1 = x1 + h * k3a
        v1 = y1 + h * k3b
        u2 = x2 + h * k3c
        v2 = y2 + h * k3d
        k4a = 1.0 - b1 * u1
        k4b = u1 - c1e * v1
        k4c = fe - b2 * u2
        k4d = u2 - c2e * v2
        x1 = x1 + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y1 = y1 + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        x2 = x2 + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        y2 = y2 + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        # NaN fails every comparison, so this also rejects non-finite states
        if not (small <= x1 <= big and small <= y1 <= big
                and small <= x2 <= big and small <= y2 <= big):
            raise DivergenceError(
                f"trajectory diverged at t={(i * step + h):.6g} (step {i})")
        k = 4 * i + 4
        sv[k] = x1
        sv[k + 1] = y1
        sv[k + 2] = x2
        sv[k + 3] = y2
        if i >= r1:
            # the new node's derivative; after a partial step the node
            # sits at t_end, so its delayed state is the end lookup's
            tqn = (i + 1) * step - tau if i < n_full else tqe
            if tqn == tqe:
                c1n, c2n, fn = c1e, c2e, fe
            else:
                c1n, c2n, fn = coefs(tqn)
        k1a = 1.0 - b1 * x1
        k1b = x1 - c1n * y1
        k1c = fn - b2 * x2
        k1d = x2 - c2n * y2
        dv[k] = k1a
        dv[k + 1] = k1b
        dv[k + 2] = k1c
        dv[k + 3] = k1d

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
