"""The positive equilibrium of the delayed feedback model.

At a steady state x1 = 1/b1, x2 = f(y1)/b2 and y2 = x2/(a2 + a21*y1),
with f the Hill function, so the protein level y1 = y10 solves the y1
balance x1 = (a1 + a12*y2)*y1, that is g(y10) = 0 with

    g(y) = a1*y + a12*y*f(y) / (b2*(a2 + a21*y)) - 1/b1.

ModelParams keeps a1, a2, b1, b2 > 0 and a12, a21 >= 0, so g is strictly
increasing on y > 0, g(0+) = -1/b1 < 0 and g(1/(a1*b1)) >= 0: there is
exactly one positive equilibrium. As f < 1, g is still negative at the
lower end of

    [1/(b1*(a1 + a12/(a2*b2))), 1/(a1*b1)],

so the equilibrium lies in that bracket.

find_equilibria bisects g on that bracket down to adjacent floats, with
f in log space so n in the hundreds cannot overflow. build_equilibrium
checks the y1 balance at the assembled equilibrium; the other three
steady-state equations hold by construction. Where f(y10) or a12*f(y)
underflows, the load, x20 and y20 carry f's binary exponent apart. The
same bisection, _bisect, finishes the crossing-frequency solve in
stability, on the bracket a few Newton steps leave.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError
from .model import (ModelParams, _hill_log, _hill_scaled, _scaled_product,
                    hill_derivs, hill_eval)

# y1-balance threshold, relative to the sum of the balance's two sides
_ACCEPT_TOL = 1e-10
# the positive float range the bisection searches
_TINY = math.ulp(0.0)
_HUGE = sys.float_info.max
_NORMAL = sys.float_info.min


class Equilibrium(NamedTuple):
    """One positive equilibrium and the Hill derivatives evaluated there.

    rho1..rho3 are f', f'', f''' at y10; they feed the linearization and
    the normal-form coefficients.
    """

    x10: float
    y10: float
    x20: float
    y20: float
    rho1: float
    rho2: float
    rho3: float

    def state(self) -> tuple[float, float, float, float]:
        return (self.x10, self.y10, self.x20, self.y20)


def _bisect(below, lo: float, hi: float) -> float:
    """Where a monotone test, true at lo (or lo = 0) and false at hi, turns
    false: the upper end of a bracket of adjacent floats. The midpoint is
    geometric while the bracket spans more than a factor 4, then arithmetic,
    so a bracket over hundreds of decades takes a few dozen extra steps.
    """
    while True:
        mid = (math.sqrt(max(lo, _TINY)) * math.sqrt(hi) if hi > 4.0 * lo
               else lo + 0.5 * (hi - lo))
        if not lo < mid < hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _solve_y10(p: ModelParams) -> float:
    """The one positive root of g, bisected to adjacent floats.

    g(y) < 0 is tested as a1*y + load < 1/b1, so no step divides by a
    product that can underflow or subtracts infinities; a load that
    overflows reads as g > 0, which it is. Where a12*f(y) underflows, the
    load carries f's binary exponent apart. The test is not monotone in
    floats where the Hill term rounds (at a1 = b1 = b2 = 1e-16, a band
    10 % wide around y10 holds several sign changes), so it keeps
    _bisect's midpoints rather than Newton steps.
    """
    x10 = 1.0 / p.b1
    if x10 == math.inf:
        raise DomainError(f"x10 = 1/b1 overflows for b1={p.b1!r}")
    n, a1, a12, a2, a21, b2 = p.n, p.a1, p.a12, p.a2, p.a21, p.b2
    log_a = math.log(p.a)
    mb2, jb2 = math.frexp(b2)

    def below(y: float) -> bool:
        q = a12 * _hill_log(y, n, log_a)
        if q < _NORMAL and a12:
            # q lost digits to underflow, though the load can be a normal
            # float: carry f's binary exponent apart
            f, e = _hill_scaled(y, p)
            mbe, jbe = math.frexp(a2 + a21 * y)
            load = _scaled_product((a12, f, y, 1.0 / mbe, 1.0 / mb2),
                                   e - jbe - jb2)
            return a1 * y + load < x10
        load = q * (y / (a2 + a21 * y)) / b2 if q else 0.0
        return a1 * y + load < x10

    # the a-priori bracket [x10/(a1 + a12/(a2 b2)), x10/a1], widened by
    # a factor 2 on each side so its rounding cannot exclude the root
    lo = max(0.5 * x10 / (a1 + a12 / a2 / b2), _TINY)
    hi = min(2.0 * x10 / a1, _HUGE)
    if not below(lo):
        raise DomainError("equilibrium protein level y10 is below the "
                          "smallest positive float")
    if below(hi):
        raise DomainError("equilibrium protein level y10 is above the "
                          "largest float")
    return _bisect(below, lo, hi)


def build_equilibrium(p: ModelParams, y10: float) -> Equilibrium:
    """Assemble the full equilibrium from a validated protein level y10.

    y10 must be a positive float at which the y1 balance
    x10 = (a1 + a12*y20)*y10 holds to 1e-10 of the sum of its sides.
    """
    if not 0.0 < y10 < math.inf:
        raise DomainError(
            f"equilibrium protein level must be positive and finite, got {y10!r}")
    f0 = hill_eval(y10, p)
    r1, r2, r3 = hill_derivs(y10, p)
    be = p.a2 + p.a21 * y10
    if f0 >= _NORMAL:
        x20 = f0 / p.b2
        # b2*be can underflow where x20/be does not
        den = p.b2 * be
        y20 = f0 / den if den >= _NORMAL else x20 / be
    else:
        # f0 lost digits to underflow, though x20 = f0/b2 and y20 can be
        # normal floats: carry f's binary exponent apart
        f, e = _hill_scaled(y10, p)
        mb2, jb2 = math.frexp(p.b2)
        mbe, jbe = math.frexp(be)
        x20 = _scaled_product((f, 1.0 / mb2), e - jb2)
        y20 = _scaled_product((f, 1.0 / mb2, 1.0 / mbe), e - jb2 - jbe)
    eq = Equilibrium(x10=1.0 / p.b1, y10=float(y10), x20=x20, y20=y20,
                     rho1=r1, rho2=r2, rho3=r3)
    if not all(map(math.isfinite, (eq.x10, eq.x20, eq.y20, r1, r2, r3))):
        raise DomainError(f"equilibrium is outside the float range: {eq}")
    supply = (p.a1 + p.a12 * eq.y20) * eq.y10
    if not abs(eq.x10 - supply) <= _ACCEPT_TOL * (eq.x10 + supply):
        raise DomainError(f"y10={y10!r} does not satisfy the y1 balance "
                          f"x10 = (a1 + a12*y20)*y10 = {supply!r}")
    return eq


def find_equilibria(p: ModelParams) -> list[Equilibrium]:
    """The positive equilibrium, which is unique, as a one-element list."""
    return [build_equilibrium(p, _solve_y10(p))]
