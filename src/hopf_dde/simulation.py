"""Direct integration of the delay system.

Fixed-step classical RK4 by the method of steps: the step divides the
delay exactly, so every delayed lookup falls on the already-computed part
of the grid, where it is evaluated by cubic Hermite interpolation from
stored states and derivatives, keeping the overall order four, or in the
prescribed history. Delayed values for the two internal stages share the
midpoint lookup. The states and derivatives are stored as one contiguous
row per component, (4, N+1); the Trajectory holds their (N+1, 4)
transposes, so a component's samples are contiguous.

A lookup enters a step only through three numbers: the delayed
coefficients a1 + a12 y2(t - tau) and a2 + a21 y1(t - tau), and the Hill
term f(y1(t - tau)). integrate takes the steps by one of two paths:

- per delay interval: on [k tau, (k+1) tau] every delayed value is
  already known (step i reads node i - m, its midpoint is the Hermite
  midpoint of nodes i - m and i - m + 1), and the model is a triangular
  cascade of linear scalar ODEs z' = q(t) - c(t) z: x1 and x2 with the
  constant decay rates b1, b2, then y1 and y2 forced by the stage values
  of x1 and x2. One RK4 step of such an ODE is an affine map
  z <- rho z + sigma, so the interval's steps are solved in numpy as
  z = P (z0 + cumsum(sigma / P)) with P = cumprod(rho). An interval's
  lookups are laid out as its nodes, then its midpoints, so every slice
  of them, and of the component rows read and written, is a contiguous
  row. This path takes every interval of at least _PASS_MIN_STEPS steps,
  including a trailing one cut short by t_end, whose delayed y1 are all
  positive with t = ln a - n ln y1 <= 700.
- per step: a float loop with one Hill term per lookup, evaluated in
  place as 1/(1 + e^t), t = ln a - n ln x, where x > 0 and t <= 700
  (_hill_log's operations there, so its bits), and by a _hill_log call
  otherwise. Full step i reads node i - m + 1 for its end lookup, which
  is also node i + 1's derivative lookup, and the Hermite midpoint of
  nodes i - m and i - m + 1; node i - m is the previous step's end
  lookup, kept in locals, so a step reads four stored values, indexed
  by node in each component's row. At m = 1 the end lookup is node i,
  the current one, already in locals, and a step reads none. On the
  first interval both lookups, a partial final step's too, come from the
  history, at the times the interval path uses. Past it only a partial
  final step looks up by time, in the grid's Hermite interpolant. This
  path takes intervals shorter than _PASS_MIN_STEPS, the partial final
  step, and any interval the other path gives back: one with a delayed
  y1 outside its domain, a decay product P that leaves [1e-250, 1e250]
  or states that break the 1e12 blow-up bound. Such an interval is
  re-run step by step, so a divergence is reported at its step.

Both paths apply the same RK4 map: the per-step path does the
floating-point operations of RK4 on numpy 4-vectors built from the
model's right-hand side written out term by term, to the bit (the tests
keep that reference); the interval path regroups them, and agrees with
it to rounding (the tests pin states to 1e-12 and derivatives to 1e-10
of each component's largest magnitude).

The history is a function from an array of times in [-tau, 0] to the
(len, 4) array of states at them. integrate calls it once in every run,
at the first interval's nodes and midpoints, a partial final step's two
lookups when that step lies on the first interval, and 0, and both paths
read that array; no history is sampled or interpolated.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import DivergenceError, DomainError
from .model import IX1, IY1, IY2, ModelParams, _hill_log

_BLOWUP_NORM = 1e12
_MAX_STEPS = 100_000_000
#: shortest delay interval, in steps, that integrate solves as numpy
#: affine recurrences; shorter ones run step by step. Measured (n4, tau =
#: 12, 20 k steps, 21 interleaved pairs per run, each side the best of 7
#: calls; 2-core Xeon, CPython 3.11, numpy 2.4): the numpy path's time over
#: the per-step path's, as the median pair, was 0.99-1.04 at 40 steps per
#: interval (five runs), 0.97-0.99 at 41, 0.94-1.00 at 42 and 0.93-0.97 at
#: 43 (three runs each), so the crossover lies at 40-41. The best pair
#: ranged from 0.54 to 1.00 on this shared machine, too noisy to use
_PASS_MIN_STEPS = 41


def _hermite_weights(s: float, h: float) -> tuple[float, float, float, float]:
    """Cubic Hermite basis at s in [0, 1]; the derivative weights carry h."""
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2, s * (1.0 - s) ** 2 * h,
            s * s * (3.0 - 2.0 * s), s * s * (s - 1.0) * h)


def _hill_log_many(x: np.ndarray, n: int, log_a: float) -> np.ndarray | None:
    """_hill_log elementwise, with numpy's log and exp, where every x > 0
    and t = ln a - n ln x <= 700; None otherwise.

    Agrees with _hill_log there to a few ulp (the transcendental parts
    round differently). Every other case is _hill_log's: the caller then
    takes the lookups step by step.
    """
    # nan fails both comparisons too
    if not x.min() > 0.0:
        return None
    t = log_a - n * np.log(x)
    if not t.max() <= 700.0:
        return None
    return 1.0 / (1.0 + np.exp(t))


def constant_history(state) -> Callable[[np.ndarray], np.ndarray]:
    """The history that is state at every time: ts -> (len(ts), 4)."""
    row = np.array(state, dtype=float)
    return lambda ts: np.tile(row, (len(ts), 1))


class Trajectory:
    """Computed solution samples: times, states and their derivatives."""

    # a class, not a tuple: tuples cannot be weakly referenced
    __slots__ = ("t", "states", "derivs", "__weakref__")

    def __init__(self, t: np.ndarray, states: np.ndarray, derivs: np.ndarray):
        self.t, self.states, self.derivs = t, states, derivs

    def component(self, idx: int) -> np.ndarray:
        return self.states[:, idx]


def _rk4_affine(h: float, c1, cm, c4, q1, q2, q3, q4):
    """rho, sigma with one classical RK4 step of z' = q(t) - c(t) z equal
    to z <- rho z + sigma.

    c1 and q1 hold at the step's start, cm at its midpoint (stages 2 and
    3, whose forcing q2, q3 may differ), c4 and q4 at its end. Stage s is
    k_s = be_s - ga_s z.
    """
    g, hc4 = (0.5 * h) * cm, h * c4
    ga2 = cm - g * c1
    ga3 = cm - g * ga2
    ga4 = c4 - hc4 * ga3
    be2 = q2 - g * q1
    be3 = q3 - g * be2
    be4 = q4 - hc4 * be3
    h6 = h / 6.0
    return (1.0 - h6 * (c1 + 2.0 * (ga2 + ga3) + ga4),
            h6 * (q1 + 2.0 * (be2 + be3) + be4))


class _IntervalSolver:
    """integrate's per-interval path: the full steps of one delay interval
    as numpy affine recurrences (see the module docstring).

    Rows of the (2, .) arrays are (x1, x2), (y1, y2) or the delayed
    (y1, y2); where the lookups of L steps are laid out, the first L + 1
    columns are the nodes and the last L the midpoints between them.
    """

    def __init__(self, p: ModelParams, first: np.ndarray,
                 states: np.ndarray, derivs: np.ndarray, m: int, step: float):
        self.first, self.n, self.log_a = first, p.n, math.log(p.a)
        self.states, self.derivs, self.m, self.step = states, derivs, m, step
        self.base = np.array([[p.a1], [p.a2]])
        self.cross = np.array([[p.a12], [p.a21]])
        self.b = b = np.array([[p.b1], [p.b2]])
        # x1 and x2 decay at the constant rates b1, b2: every step has the
        # same rho, and sigma = w1 q1 + wm qm + w4 q4
        rho, self.w1 = _rk4_affine(step, b, b, b, 1.0, 0.0, 0.0, 0.0)
        self.wm = _rk4_affine(step, b, b, b, 0.0, 1.0, 1.0, 0.0)[1]
        self.w4 = _rk4_affine(step, b, b, b, 0.0, 0.0, 0.0, 1.0)[1]
        with np.errstate(over="ignore"):
            self.P = np.cumprod(np.broadcast_to(rho, (2, m)), axis=1)
        self.x_ok = _in_range(self.P)

    def solve(self, i0: int, i1: int) -> bool:
        """Full steps i0..i1-1, within one delay interval.

        Step i reads its delayed y1, y2 from node i - m (on the first
        interval, which is solved whole, from first: the history at its
        nodes and midpoints less tau), so every input is known before the
        first step. Writes nodes i0+1..i1 and their derivatives and
        returns True. Returns False when a delayed y1 lies outside
        _hill_log_many's domain, a decay product leaves [1e-250, 1e250] or
        a state breaks the blow-up bound; the caller then takes these steps
        one by one, which rewrites every node it reaches.
        """
        if not self.x_ok:
            return False
        states, derivs, m, step = self.states, self.derivs, self.m, self.step
        L = i1 - i0
        if i0 < m:
            w = self.first
        else:
            yn = states[IY1::2, i0 - m:i1 - m + 1]
            dn = derivs[IY1::2, i0 - m:i1 - m + 1]
            w = np.empty((2, 2 * L + 1))
            w[:, :L + 1] = yn
            w[:, L + 1:] = (0.5 * (yn[:, :-1] + yn[:, 1:])
                            + (0.125 * step) * (dn[:, :-1] - dn[:, 1:]))
        f = _hill_log_many(w[0], self.n, self.log_a)
        if f is None:
            return False
        # decay rates of y1, y2 and forcing (1, f(y1d)) of x1, x2
        c = self.base + self.cross * w[::-1]
        q = np.ones((2, 2 * L + 1))
        q[1] = f
        q1, q4, qm = q[:, :L], q[:, 1:L + 1], q[:, L + 1:]
        b, P = self.b, self.P[:, :L]
        x0, y0 = states[IX1::2, i0, None], states[IY1::2, i0, None]
        x = P * (x0 + np.cumsum((self.w1 * q1 + self.wm * qm + self.w4 * q4) / P,
                                axis=1))
        # x at each step's start and stages: the forcing of y1 and y2
        xs1 = np.concatenate((x0, x[:, :-1]), axis=1)
        xs2 = xs1 + (0.5 * step) * (q1 - b * xs1)
        xs3 = xs1 + (0.5 * step) * (qm - b * xs2)
        xs4 = xs1 + step * (qm - b * xs3)
        with np.errstate(over="ignore", invalid="ignore"):
            rho, sigma = _rk4_affine(step, c[:, :L], c[:, L + 1:], c[:, 1:L + 1],
                                     xs1, xs2, xs3, xs4)
            P = np.cumprod(rho, axis=1)
            if not _in_range(P):
                return False
            y = P * (y0 + np.cumsum(sigma / P, axis=1))
        out = states[:, i0 + 1:i1 + 1]
        out[IX1::2], out[IY1::2] = x, y
        # NaN fails the comparison too
        if not np.abs(out).max() <= _BLOWUP_NORM:
            return False
        d = derivs[:, i0 + 1:i1 + 1]
        d[IX1::2] = q4 - b * x
        d[IY1::2] = x - c[:, 1:L + 1] * y
        return True


def _in_range(P: np.ndarray) -> bool:
    """Whether every |P| lies in [1e-250, 1e250], where z0 + cumsum(sigma
    / P) keeps its range."""
    a = np.abs(P)
    return bool(a.min() >= 1e-250 and a.max() <= 1e250)


def integrate(p: ModelParams, tau: float,
              history: Callable[[np.ndarray], np.ndarray],
              t_end: float, step: float) -> Trajectory:
    """Method-of-steps RK4 over [0, t_end] from history on [-tau, 0].

    step must divide tau (to 1e-9 relative); it is then taken as tau/m
    exactly, so every full step's delayed lookups fall on the grid's
    nodes and midpoints. A final shorter step is taken when t_end is not
    a multiple of step; the last node then sits at t_end, and only that
    step's lookups fall off the grid. On the first interval every lookup
    is the history at its time less tau: one call takes them all and the
    state at 0. Raises DivergenceError when history gives a non-finite
    value, or when the state norm exceeds 1e12 or turns non-finite;
    DomainError for a tau, step or t_end that is not positive and finite,
    a history that does not give (len, 4), and arrays that cannot be
    allocated.
    """
    if not 0.0 < tau < math.inf:
        raise DomainError(f"delay must be positive and finite, got {tau!r}")
    if not 0.0 < step <= tau:
        raise DomainError(f"step must lie in (0, tau], got {step!r}")
    m = int(round(tau / step))
    if m < 1 or abs(m * step - tau) > 1e-9 * max(tau, 1.0):
        raise DomainError(f"step {step!r} does not divide the delay {tau!r}")
    step = tau / m
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    n_full = int(t_end / step + 1e-9)
    rem = t_end - n_full * step
    if n_full > 0 and rem < 1e-12 * max(t_end, 1.0):
        rem = 0.0
    N = n_full + (1 if rem > 0.0 else 0)
    if N > _MAX_STEPS:
        raise DomainError(f"{N} steps exceed the {_MAX_STEPS} budget")

    # the first interval's nodes, then its midpoints (from -tau), the
    # partial final step's two lookups if it lies there, and 0; each within
    # a few ulp(tau) of [-tau, 0], and clamped into it
    k = min(m, n_full)
    half = np.arange(2 * k + 1) * (0.5 * step) - tau
    parts = [half[::2], half[1::2]]
    if n_full < m and rem > 0.0:
        parts.append([n_full * step + 0.5 * rem - tau, n_full * step + rem - tau])
    tq = np.concatenate(parts + [[0.0]])
    hv = np.asarray(history(np.minimum(0.0, np.maximum(tq, -tau))), dtype=float)
    if hv.shape != (len(tq), 4):
        raise DomainError(f"history function gave shape {hv.shape}, "
                          f"not ({len(tq)}, 4)")
    if not np.all(np.isfinite(hv)):
        raise DivergenceError("history holds non-finite values")
    # the delayed y1, y2 at those times but 0, one row per component
    first = np.ascontiguousarray(hv[:-1, IY1::2].T)

    # one row per component; zeros, not empty: every lookup reads nodes
    # that are already written (full step i reads nodes i - m and i - m +
    # 1, the partial step at most node n_full), and should that ever break,
    # the read gives 0, not whatever the allocator left there
    try:
        states = np.zeros((4, N + 1))
        derivs = np.zeros((4, N + 1))
        ts = np.empty(N + 1)
    except MemoryError:
        raise DomainError(f"{N} steps need {72 * (N + 1)} bytes of arrays, "
                          "more than can be allocated") from None
    states[:, 0] = hv[-1]
    # one view per row: indexing it by node reads and writes Python floats
    sx1, sy1, sx2, sy2 = map(memoryview, states)
    dx1, dy1, dx2, dy2 = map(memoryview, derivs)
    a1, a2, a12, a21, b1, b2, n = p.a1, p.a2, p.a12, p.a21, p.b1, p.b2, p.n
    log_a = math.log(p.a)
    big, small = _BLOWUP_NORM, -_BLOWUP_NORM

    def off_grid(tq: float) -> tuple[float, float]:
        """y1, y2 at time tq > 0, for the partial final step's lookups past
        the first interval: the Hermite interpolant of the nodes around tq."""
        x = tq / step
        j = int(x)
        w0, w1, w2, w3 = _hermite_weights(x - j, step)
        return (w0 * sy1[j] + w1 * dy1[j] + w2 * sy1[j + 1] + w3 * dy1[j + 1],
                w0 * sy2[j] + w1 * dy2[j] + w2 * sy2[j + 1] + w3 * dy2[j + 1])

    def steps(i0: int, i1: int) -> None:
        """Steps i0..i1-1 one by one on Python floats, from node i0 and
        its stored derivative."""
        x1, y1, x2, y2 = sx1[i0], sy1[i0], sx2[i0], sy2[i0]
        k1a, k1b, k1c, k1d = dx1[i0], dy1[i0], dx2[i0], dy2[i0]
        # y1, y2 and their derivatives at node i - m, the previous step's
        # end lookup (node 0 until the first interval is done)
        j = max(i0 - m, 0)
        e1, e2, ed1, ed2 = sy1[j], sy2[j], dy1[j], dy2[j]
        if i0 < m:
            # the first interval's lookups: its nodes, then from k + 1 its
            # midpoints, at the same times as _IntervalSolver.solve's
            hy1, hy2 = first.tolist()
        w0, w1, w2, w3 = _hermite_weights(0.5, step)
        h, hh, h6 = step, 0.5 * step, step / 6.0
        log, exp, hill = math.log, math.exp, _hill_log
        for i in range(i0, i1):
            # the delayed y1, y2 at the midpoint (d) and at the end (g)
            if m <= i < n_full:
                if m == 1:
                    # the end lookup is node i, the current one
                    g1 = y1
                    g2 = y2
                    gd1 = k1b
                    gd2 = k1d
                else:
                    j = i - m + 1
                    g1 = sy1[j]
                    g2 = sy2[j]
                    gd1 = dy1[j]
                    gd2 = dy2[j]
                d1 = w0 * e1 + w1 * ed1 + w2 * g1 + w3 * gd1
                d2 = w0 * e2 + w1 * ed2 + w2 * g2 + w3 * gd2
                e1 = g1
                e2 = g2
                ed1 = gd1
                ed2 = gd2
            elif i < n_full:
                d1, d2 = hy1[k + 1 + i], hy2[k + 1 + i]
                g1, g2 = hy1[i + 1], hy2[i + 1]
            else:
                h, hh, h6 = rem, 0.5 * rem, rem / 6.0
                if i < m:
                    # on the first interval: the history's last two lookups
                    d1, d2, g1, g2 = hy1[-2], hy2[-2], hy1[-1], hy2[-1]
                else:
                    d1, d2 = off_grid(i * step + hh - tau)
                    g1, g2 = off_grid(i * step + rem - tau)
            c1m, c2m = a1 + a12 * d2, a2 + a21 * d1
            c1e, c2e = a1 + a12 * g2, a2 + a21 * g1
            # the Hill terms: _hill_log's operations, in place where its
            # argument is positive and t = ln a - n ln x <= 700
            t = log_a - n * log(d1) if d1 > 0.0 else math.inf
            fm = 1.0 / (1.0 + exp(t)) if t <= 700.0 else hill(d1, n, log_a)
            t = log_a - n * log(g1) if g1 > 0.0 else math.inf
            fe = 1.0 / (1.0 + exp(t)) if t <= 700.0 else hill(g1, n, log_a)
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
            j = i + 1
            sx1[j] = x1
            sy1[j] = y1
            sx2[j] = x2
            sy2[j] = y2
            # the new node's derivative takes the end lookup
            k1a = 1.0 - b1 * x1
            k1b = x1 - c1e * y1
            k1c = fe - b2 * x2
            k1d = x2 - c2e * y2
            dx1[j] = k1a
            dy1[j] = k1b
            dx2[j] = k1c
            dy2[j] = k1d

    x1, y1, x2, y2 = hv[-1].tolist()
    y1d, y2d = first[:, 0].tolist()
    dx1[0], dy1[0], dx2[0], dy2[0] = (1.0 - b1 * x1, x1 - (a1 + a12 * y2d) * y1,
                                      _hill_log(y1d, n, log_a) - b2 * x2,
                                      x2 - (a2 + a21 * y1d) * y2)
    i = 0
    # k = min(m, n_full): with fewer full steps no interval takes the solver
    if k >= _PASS_MIN_STEPS:
        solver = _IntervalSolver(p, first[:, :2 * k + 1], states, derivs, m, step)
        while n_full - i >= _PASS_MIN_STEPS:
            i1 = min(i + m, n_full)
            if not solver.solve(i, i1):
                steps(i, i1)
            i = i1
    steps(i, N)

    ts[:n_full + 1] = np.arange(n_full + 1) * step
    if rem > 0.0:
        ts[N] = t_end
    return Trajectory(t=ts, states=states.T, derivs=derivs.T)


def upward_crossings(ts: np.ndarray, vals: np.ndarray, level: float = 0.0) -> np.ndarray:
    """Times where vals crosses level from below, linearly interpolated."""
    v = np.asarray(vals, dtype=float) - level
    i = np.nonzero((v[:-1] < 0.0) & (v[1:] >= 0.0))[0]
    s = v[i] / (v[i] - v[i + 1])
    return ts[i] + s * (ts[i + 1] - ts[i])


def oscillation_summary(ts: np.ndarray, vals: np.ndarray) -> dict:
    """Period and cycle-amplitude statistics of the trailing oscillation.

    Uses upward crossings of the mean level over the last half of the
    record; amplitude variation is (max - min)/mean of per-cycle peak-to-
    trough amplitudes over the last quarter. ts must be sorted, as a
    trajectory's times are. Returns NaNs when fewer than three full cycles
    are available.
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
    # the samples with c0 <= t <= c1 of each cycle, as ts is sorted
    lo = np.searchsorted(ts, cr[q - 1:-1], side="left").tolist()
    hi = np.searchsorted(ts, cr[q:], side="right").tolist()
    amps = []
    for j0, j1 in zip(lo, hi):
        if j1 - j0 > 2:
            seg = vals[j0:j1]
            amps.append(float(np.max(seg) - np.min(seg)))
    if len(amps) >= 2 and np.mean(amps) > 0.0:
        out["amp_variation"] = float((np.max(amps) - np.min(amps)) / np.mean(amps))
    return out
