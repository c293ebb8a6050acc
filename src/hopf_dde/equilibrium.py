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

find_equilibria takes Newton steps on g inside that bracket, from where
the Hill term switches on, down to adjacent floats, with f in log space
so n in the hundreds cannot overflow; where rounding makes the Newton
result untrustworthy it bisects the whole bracket instead.
build_equilibrium checks the y1 balance at the assembled equilibrium; the
other three steady-state equations hold by construction. Where f(y10) or
a12*f(y) underflows, the load, x20 and y20 carry f's binary exponent
apart. The same loop, _newton_bisect, solves the crossing-frequency cubic
in stability.
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
# the positive float range the root finders search
_TINY = math.ulp(0.0)
_HUGE = sys.float_info.max
_NORMAL = sys.float_info.min
#: Newton steps before _newton_bisect falls back to bisection; the
#: frequency cubic takes at most 8 on the sweep_n grid and on random
#: coefficients over 1e+-100, the equilibrium at most 9 on the sweep_n grid
_NEWTON_STEPS = 16
#: the widest rounding band of the y1-balance test, relative to y10, at
#: which the equilibrium keeps its Newton root rather than bisecting
_BAND = 2.0**-40


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


def _midpoint(lo: float, hi: float) -> float:
    """_bisect's midpoint: geometric while the bracket spans more than a
    factor 4, then arithmetic."""
    return (math.sqrt(max(lo, _TINY)) * math.sqrt(hi) if hi > 4.0 * lo
            else lo + 0.5 * (hi - lo))


def _bisect(below, lo: float, hi: float) -> float:
    """Where a monotone test, true at lo (or lo = 0) and false at hi, turns
    false: the upper end of a bracket of adjacent floats. The midpoint is
    geometric while the bracket spans more than a factor 4, then arithmetic,
    so a bracket over hundreds of decades takes a few dozen extra steps.
    """
    while True:
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _newton_bisect(value_slope, z: float, lo: float, hi: float) -> float:
    """Where the test v < 0 turns false, as _bisect, by Newton steps from z.

    value_slope(z) gives (v, dv): v has the test's sign, dv the slope of
    the increasing function that v rounds. The test is true at lo (or
    lo = 0) and false at hi, and every evaluation narrows (lo, hi). A step
    that leaves the bracket takes _bisect's midpoint instead. Where a step
    lands on the side of the last one and is more than half as long,
    Newton creeps (up a saturating Hill term, or down its steep flank) and
    twice the step is taken. Once a step rounds to nothing, the test turns
    within a few floats of z, or over a run of floats where the rounded
    value is 0: probes 1, 2, 4, ... floats toward it bracket the turn, and
    _bisect finishes on those floats, or on what is left after
    _NEWTON_STEPS where Newton stalls. The result is the upper end of a
    bracket of adjacent floats, _bisect's float wherever the test is
    monotone in floats.
    """
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        if not lo < z < hi:
            z = _midpoint(lo, hi)
            if not lo < z < hi:
                return hi
        v, dv = value_slope(z)
        if v < 0.0:
            lo = z
        else:
            hi = z
        # a slope that is 0 (underflow) or nan takes the midpoint
        step = v / dv if dv > 0.0 else math.nan
        z_next = z - step
        if z_next == z:
            # probes 1, 2, 4, ... floats from z toward the turn
            up, gap = v < 0.0, math.ulp(z)
            while lo < (probe := z + gap if up else z - gap) < hi:
                if value_slope(probe)[0] < 0.0:
                    lo = probe
                else:
                    hi = probe
                if (lo == probe) != up:
                    break
                gap *= 2.0
            break
        # a step goes the last one's way, and creeps, where v keeps its
        # sign; over half as long, it is doubled
        z = z_next - step if step / last > 0.5 else z_next
        last = step
    return _bisect(lambda z: value_slope(z)[0] < 0.0, lo, hi)


def _solve_y10(p: ModelParams) -> float:
    """The one positive root of g: a float y where the test
    a1*y + load < 1/b1 holds at the float below y and fails at y.

    The test is g(y) < 0 without a division by a product that can
    underflow or a difference of infinities; a load that overflows reads
    as g > 0, which it is. Where a12*f(y) underflows, the load carries f's
    binary exponent apart. _newton_bisect steps from f = 1/2, where the
    Hill term switches on, if that lies in the bracket, on the value
    (a1*y + load) - 1/b1, whose sign is the test's, and
    g' = a1 + (load/y)(n (1 - f) + a2/(a2 + a21 y)), as y f' = n f (1 - f).
    On perfbench's sweep_n grid that takes at most 10 Hill evaluations,
    against 58 for bisecting the bracket.

    The test is not monotone in floats where the Hill term rounds (at
    a1 = b1 = b2 = 1e-16, a band 10 % wide around y10 holds several sign
    changes), and a narrowed bracket can end at another flip there. So the
    whole bracket is bisected where the rounding band at the Newton root
    spans more than _BAND of it, and where a12*f underflows (the slope is
    then nan). The band is the sum's error, about
    x10 (|ln a| + 2 n |ln y| + 16) 2^-53 from rounding t = ln a - n ln y
    (f = 1/(1 + e^t)) and a few ulps per operation, over g'. On 5000
    draws of the ROADMAP sampler (rates log-uniform on [1e-3, 1], a on
    [1e-2, 1e2], n in {1, 2, 3, 4, 6, 8, 12, 20}) 66 roots differ from
    the whole bracket's bisection, by at most 18 ulps, each a flip of the
    test that passes build_equilibrium's balance check; at the preset
    rates for n = 1..169 and on perfbench's a12 grids they are its float.
    """
    x10 = 1.0 / p.b1
    if x10 == math.inf:
        raise DomainError(f"x10 = 1/b1 overflows for b1={p.b1!r}")
    n, a1, a12, a2, a21, b2 = p.n, p.a1, p.a12, p.a2, p.a21, p.b2
    log_a = math.log(p.a)
    mb2, jb2 = math.frexp(b2)

    def value_slope(y: float) -> tuple[float, float]:
        # a1*y + load < x10 exactly where (a1*y + load) - x10 < 0
        f = _hill_log(y, n, log_a)
        q = a12 * f
        be = a2 + a21 * y
        if q < _NORMAL and a12:
            # q lost digits to underflow, though the load can be a normal
            # float: carry f's binary exponent apart; a nan slope bisects
            fs, e = _hill_scaled(y, p)
            mbe, jbe = math.frexp(be)
            load = _scaled_product((a12, fs, y, 1.0 / mbe, 1.0 / mb2),
                                   e - jbe - jb2)
            return (a1 * y + load) - x10, math.nan
        load = q * (y / be) / b2 if q else 0.0
        return (a1 * y + load) - x10, a1 + load / y * (n * (1.0 - f) + a2 / be)

    def below(y: float) -> bool:
        return value_slope(y)[0] < 0.0

    # the a-priori bracket [x10/(a1 + a12/(a2 b2)), x10/a1], widened by
    # a factor 2 on each side so its rounding cannot exclude the root
    lo = max(0.5 * x10 / (a1 + a12 / a2 / b2), _TINY)
    hi = min(2.0 * x10 / a1, _HUGE)
    # f = 1/2 at y = a^(1/n)
    start = math.exp(log_a / n)
    if not lo < start < hi:
        start = _midpoint(lo, hi)
    y = _newton_bisect(value_slope, start, lo, hi)
    # the steps take the test as true at lo and false at hi; where either
    # is not, they end next to it
    if y == hi and below(hi):
        raise DomainError("equilibrium protein level y10 is above the "
                          "largest float")
    if math.nextafter(y, 0.0) == lo and not below(lo):
        raise DomainError("equilibrium protein level y10 is below the "
                          "smallest positive float")
    _, slope = value_slope(y)
    err = x10 * (abs(log_a) + 2.0 * n * abs(math.log(y)) + 16.0) * 2.0**-53
    # not <=, so that a nan slope bisects
    if not err <= _BAND * y * slope:
        return _bisect(below, lo, hi)
    return y


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
