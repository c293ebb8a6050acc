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

import math
from typing import NamedTuple

from .errors import DivergenceError, DomainError

# state-vector component indices
IX1, IY1, IX2, IY2 = 0, 1, 2, 3
STATE_NAMES = ("x1", "y1", "x2", "y2")
#: hill_derivs forms x**2 and x**3 unscaled on this open range
_POW_SAFE_MIN, _POW_SAFE_MAX = 2.0**-330, 2.0**330
#: below this Hill value _hill_scaled carries it as a mantissa and exponent
_SIGMA_SCALED = 2.0**-511


class _ModelParamsFields(NamedTuple):
    a1: float
    a2: float
    a12: float
    a21: float
    b1: float
    b2: float
    a: float
    n: int


class ModelParams(_ModelParamsFields):
    """Model rate constants and Hill parameters.

    a1, a2: linear decay rates of the two proteins.
    a12, a21: cross-repression strengths (zero allowed; decouples the loop).
    b1, b2: mRNA decay rates.
    a: Hill half-saturation constant (f(a^(1/n)) = 1/2).
    n: Hill exponent, a positive integer.

    Every construction is validated, _replace included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("a1", "a2", "b1", "b2"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise DomainError(f"{name} must lie in (0, 1], got {v!r}")
        for name in ("a12", "a21"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
        if not 0.0 < self.a < math.inf:
            raise DomainError(f"a must be positive and finite, got {self.a!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")
        return self

    # _replace builds through _make, which would skip __new__
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
    return _hill_log(float(x), p.n, math.log(p.a))


def hill_derivs(x: float, p: ModelParams) -> tuple[float, float, float]:
    """First three derivatives of the Hill function at x > 0.

    With sigma = f(x), the log-space form gives
        f'   = (n/x) sigma (1 - sigma)
        f''  = (n/x^2) sigma (1 - sigma) ((n - 1) - 2 n sigma)
        f''' = (n/x^3) sigma (1 - sigma) [(n-1)(n-2)(1-sigma)^2
               - 4(n^2-1) sigma (1-sigma) + (n+1)(n+2) sigma^2]
    which avoids forming x^n directly. Outside [2^-330, 2^330] (x^3 leaves
    the normal float range just beyond) x is scaled by a power of two and
    each product is assembled by _scaled_product, so every derivative is
    finite for finite x > 0; inside, the values are the plain products
    bit for bit. Below sigma = 2^-511, where sigma^2 and then sigma itself
    leave the normal range, 1 - sigma rounds to 1 and each bracket is its
    lowest power of sigma with a nonzero coefficient; sigma goes to
    _scaled_product as _hill_scaled's mantissa and binary exponent, so
    n x^(n-1)/a and its siblings keep their digits. A derivative reads 0
    only where it underflows itself (or
    where 1 - sigma underflows, for huge x). Where sigma > 1/2, 1 - sigma
    is taken in log space as a/(a + x^n), so that f' keeps its digits
    once x^n/a passes 1e16 and sigma rounds to 1.
    """
    if x <= 0.0:
        raise DomainError(f"hill_derivs requires x > 0, got {x!r}")
    x = float(x)
    n = float(p.n)
    s, e = _hill_scaled(x, p)
    k = 0 if _POW_SAFE_MIN < x < _POW_SAFE_MAX else math.frexp(x)[1]
    xs = math.ldexp(x, -k)
    c2 = ((n - 1.0), -2.0 * n)
    c3 = ((n - 1.0) * (n - 2.0), -4.0 * (n * n - 1.0), (n + 1.0) * (n + 2.0))
    if not e:
        # sigma = s; a/(a + x^n) = 1/(1 + e^(-t)): _hill_log's t negated
        r = 1.0 - s if s <= 0.5 else _hill_log(x, -p.n, -math.log(p.a))
        u = s * r
        b2 = (c2[0] + c2[1] * s,)
        b3 = (c3[0] * r ** 2 + c3[1] * s * r + c3[2] * s * s,)
    else:
        # sigma = s 2^e, and 1 - sigma rounds to 1
        u = s
        b2, b3 = _lowest_power(c2, s), _lowest_power(c3, s)
    r1 = _scaled_product((n / xs, u), e - k)
    r2 = _scaled_product((n / xs**2, u) + b2, len(b2) * e - 2 * k)
    r3 = _scaled_product((n / xs**3, u) + b3, len(b3) * e - 3 * k)
    return r1, r2, r3


def _hill_scaled(x: float, p: ModelParams) -> tuple[float, int]:
    """The Hill value f(x) at x > 0 as (m, e), f = m 2^e.

    Where f >= 2^-511, m is _hill_log's value bit for bit and e = 0.
    Below, f = x^n/a to a relative 2^-511; with x = mx 2^jx and
    a = ma 2^ja, log2 f splits into the integer n jx - ja and
    n log2(mx) - log2(ma), of size at most n + 1, so m in (1/2, 1] is good
    to about n ulp however far f lies below the float range.
    """
    s = _hill_log(x, p.n, math.log(p.a))
    if s >= _SIGMA_SCALED:
        return s, 0
    mx, jx = math.frexp(x)
    ma, ja = math.frexp(p.a)
    lg = p.n * math.log2(mx) - math.log2(ma)
    lg_int = math.ceil(lg)
    return 2.0 ** (lg - lg_int), p.n * jx - ja + lg_int


def _lowest_power(coeffs: tuple[float, ...], u: float) -> tuple[float, ...]:
    """c_i, u, ..., u (i times u) for the first nonzero c_i: the term of
    sum c_i sigma^i that the sum rounds to when sigma = u 2^e is below
    2^-511, as factors for _scaled_product (they carry e times i)."""
    i = next(i for i, c in enumerate(coeffs) if c)
    return (coeffs[i],) + (u,) * i


def _scaled_product(factors: tuple[float, ...], exp2: int) -> float:
    """factors[0] * factors[1] * ... * 2**exp2 without intermediate range loss.

    The running product is kept as a mantissa in [0.5, 1) and a separate
    binary exponent; renormalizing is exact, so each multiply rounds as
    the plain left-to-right product does wherever that stays normal. The
    running product cannot overflow; the result underflows to 0, or reads
    +-inf where the product itself exceeds the float range.
    """
    m, e = 1.0, exp2
    for f in factors:
        m, de = math.frexp(m * f)
        e += de
    # |m| < 1, so m 2^e is finite exactly where e <= 1024
    return math.ldexp(m, e) if e <= 1024 or not m else math.copysign(math.inf, m)


def _hill_log(x: float, n: int, log_a: float) -> float:
    """Hill function continued to x < 0 via the real integer power.

    The public hill_eval rejects negative arguments; the integrator uses
    this continuation so transients that briefly cross zero keep a smooth
    right-hand side. For even n the function is even. For odd n and
    x < 0, x^n/(a + x^n) = 1/(1 - exp(t)) with the same
    t = ln a - n ln|x| as the positive branch 1/(1 + exp(t)), so neither
    overflows for huge n; the pole x = -a^(1/n) (t = 0) raises
    DivergenceError. Where t < -700, e^t is below half an ulp of 1, so
    1/(1 +- e^t) rounds to exactly 1. The integrator's fast copies (the
    per-step loop's in-place term, simulation._hill_log_many) cover only
    x > 0 with t <= 700 and leave every other case to this function.
    Takes ln a so a caller can compute it once.
    """
    if x == 0.0:
        return 0.0
    t = log_a - n * math.log(abs(x))
    sign = -1.0 if x < 0.0 and n % 2 else 1.0
    if t > 700.0:
        return sign * math.exp(-t)
    if t == 0.0 and sign < 0.0:
        raise DivergenceError(f"Hill term has a pole at x={x!r} for odd n={n}")
    return 1.0 / (1.0 + sign * math.exp(t))
