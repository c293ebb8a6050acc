"""Delayed P53-MDM2 negative-feedback model.

State components, in order: x1 (P53 mRNA), y1 (P53 protein), x2 (MDM2
mRNA), y2 (MDM2 protein). The protein of each gene represses the other
through delayed mass-action terms, and P53 protein activates MDM2
transcription through a Hill function f(x) = x^n / (a + x^n):

    x1' = 1 - b1*x1
    y1' = x1 - (a1 + a12*y2(t - tau)) * y1
    x2' = f(y1(t - tau)) - b2*x2
    y2' = x2 - (a2 + a21*y1(t - tau)) * y2

Only y1 and y2 enter with delay, and both with the same delay tau.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DivergenceError, DomainError

# state-vector component indices
IX1, IY1, IX2, IY2 = 0, 1, 2, 3
STATE_NAMES = ("x1", "y1", "x2", "y2")


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Model rate constants and Hill parameters.

    a1, a2: linear decay rates of the two proteins.
    a12, a21: cross-repression strengths (zero allowed; decouples the loop).
    b1, b2: mRNA decay rates.
    a: Hill half-saturation constant (f(a^(1/n)) = 1/2).
    n: Hill exponent, a positive integer.
    """

    a1: float
    a2: float
    a12: float
    a21: float
    b1: float
    b2: float
    a: float
    n: int

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise DomainError(f"{name} must lie in (0, 1], got {v!r}")
        for name in ("a12", "a21"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
        if not self.a > 0.0:
            raise DomainError(f"a must be positive, got {self.a!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")


#: standard parameter presets used throughout the docs and tests;
#: they differ only in the Hill exponent
PRESETS = {
    name: ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02,
                      b1=0.8, b2=0.01, a=4.0, n=n)
    for name, n in (("n2", 2), ("n4", 4), ("n163", 163), ("n164", 164))
}


def hill_eval(x: float, p: ModelParams) -> float:
    """Hill function f(x) = x^n / (a + x^n) for x >= 0.

    Evaluated in log space so that large exponents (n in the hundreds)
    neither overflow nor lose the transition region. Returns values in
    [0, 1). Raises DomainError for negative x.
    """
    if x < 0.0:
        raise DomainError(f"hill_eval requires x >= 0, got {x!r}")
    return _hill_extended(float(x), p.n, p.a)


def hill_derivs(x: float, p: ModelParams) -> tuple[float, float, float]:
    """First three derivatives of the Hill function at x > 0.

    With sigma = f(x), the log-space form gives
        f'   = (n/x) sigma (1 - sigma)
        f''  = (n/x^2) sigma (1 - sigma) ((n - 1) - 2 n sigma)
        f''' = (n/x^3) sigma (1 - sigma) [(n-1)(n-2)(1-sigma)^2
               - 4(n^2-1) sigma (1-sigma) + (n+1)(n+2) sigma^2]
    which avoids forming x^n directly.
    """
    if x <= 0.0:
        raise DomainError(f"hill_derivs requires x > 0, got {x!r}")
    x = float(x)
    n = float(p.n)
    s = _hill_extended(x, p.n, p.a)
    u = s * (1.0 - s)
    r1 = (n / x) * u
    r2 = (n / x**2) * u * ((n - 1.0) - 2.0 * n * s)
    r3 = (n / x**3) * u * ((n - 1.0) * (n - 2.0) * (1.0 - s) ** 2
                           - 4.0 * (n * n - 1.0) * s * (1.0 - s)
                           + (n + 1.0) * (n + 2.0) * s * s)
    return r1, r2, r3


def _hill_log(x: float, n: int, log_a: float) -> float:
    """Hill function continued to x < 0 via the real integer power.

    The public hill_eval rejects negative arguments; the integrator uses
    this continuation so transients that briefly cross zero keep a smooth
    right-hand side. For even n the function is even. For odd n and
    x < 0, x^n/(a + x^n) = 1/(1 - exp(t)) with the same
    t = ln a - n ln|x| as the positive branch 1/(1 + exp(t)), so neither
    overflows for huge n; the pole x = -a^(1/n) (t = 0) raises
    DivergenceError. Takes ln a so a caller can compute it once.
    """
    if x == 0.0:
        return 0.0
    t = log_a - n * math.log(abs(x))
    sign = -1.0 if x < 0.0 and n % 2 else 1.0
    if t > 700.0:
        return sign * math.exp(-t)
    if t < -700.0:
        return 1.0
    if t == 0.0 and sign < 0.0:
        raise DivergenceError(f"Hill term has a pole at x={x!r} for odd n={n}")
    return 1.0 / (1.0 + sign * math.exp(t))


def _hill_extended(x: float, n: int, a: float) -> float:
    """_hill_log with the half-saturation constant a itself."""
    return _hill_log(x, n, math.log(a))


def _hill_log_many(x: np.ndarray, n: int, log_a: float) -> np.ndarray:
    """_hill_log elementwise, to the bit.

    math.log and math.exp do the transcendental parts, since numpy's
    differ from them in the last bit; numpy does the arithmetic, which
    rounds the same. Clamps and pole as in _hill_log.
    """
    ax = np.abs(x)
    zero = ax == 0.0
    ax[zero] = 1.0
    t = log_a - n * np.fromiter(map(math.log, ax.tolist()), float, len(ax))
    odd_neg = x < 0.0 if n % 2 else np.zeros(len(x), dtype=bool)
    if np.any(odd_neg & (t == 0.0)):
        raise DivergenceError(f"Hill term has a pole for odd n={n}")
    sign = np.where(odd_neg, -1.0, 1.0)
    # exp(-700) is below half an ulp of 1, so clipping t to [-700, 700]
    # already gives the t < -700 branch's 1.0 and keeps exp finite
    e = np.fromiter(map(math.exp, t.clip(-700.0, 700.0).tolist()), float, len(t))
    out = 1.0 / (1.0 + sign * e)
    tail = t > 700.0
    if tail.any():
        out[tail] = sign[tail] * np.array([math.exp(-v) for v in t[tail].tolist()])
    out[zero] = 0.0
    return out


def field(x1: float, y1: float, x2: float, y2: float,
          y1d: float, y2d: float, p: ModelParams) -> tuple[float, float, float, float]:
    """Right-hand side of the delay system on scalars.

    (x1, y1, x2, y2) is the state at time t; y1d, y2d are y1 and y2 at
    t - tau. Components may be negative during transients; the Hill term
    uses the real continuation. rhs wraps it for arrays; the integrator
    writes the same expressions out inline on precomputed delayed
    coefficients, and a test pins it to rhs.
    """
    return (1.0 - p.b1 * x1,
            x1 - (p.a1 + p.a12 * y2d) * y1,
            _hill_extended(y1d, p.n, p.a) - p.b2 * x2,
            x2 - (p.a2 + p.a21 * y1d) * y2)


def rhs(state: np.ndarray, delayed: np.ndarray, p: ModelParams) -> np.ndarray:
    """Right-hand side of the delay system on state vectors.

    state: (x1, y1, x2, y2) at time t; delayed: the same components at
    t - tau (only y1, y2 of it are used). See field.
    """
    return np.array(field(float(state[IX1]), float(state[IY1]),
                          float(state[IX2]), float(state[IY2]),
                          float(delayed[IY1]), float(delayed[IY2]), p))
