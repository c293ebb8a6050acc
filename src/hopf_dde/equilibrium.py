"""The positive equilibrium of the delayed feedback model.

At an equilibrium, x1 = 1/b1 and the remaining components are algebraic
functions of the protein level y1 = y10, which must satisfy a polynomial
of degree n + 2 obtained by clearing the Hill denominator:

    b1*b2*a1*y*(a2 + a21*y)*(a + y^n) + b1*a12*y^(n+1)
        - b2*(a2 + a21*y)*(a + y^n) = 0

Dividing by b1*b2*(a2 + a21*y)*(a + y^n) > 0 leaves the same positive
roots as

    g(y) = a1*y + a12*y*f(y) / (b2*(a2 + a21*y)) - 1/b1,

with f the Hill function. ModelParams keeps a1, a2, b1, b2 > 0 and
a12, a21 >= 0, so g is strictly increasing on y > 0, g(0+) = -1/b1 < 0
and g(1/(a1*b1)) >= 0: there is exactly one positive equilibrium. As
f < 1, g is still negative at the lower end of

    [1/(b1*(a1 + a12/(a2*b2))), 1/(a1*b1)],

so the equilibrium lies in that bracket.

find_equilibria bisects g on that bracket down to adjacent floats, with
f in log space so n in the hundreds cannot overflow, then polishes the
root with three Newton steps on the polynomial. build_equilibrium checks
the polynomial's scaled residual at the root, a second route to the
same equation.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .errors import DomainError
from .model import ModelParams, _hill_log, hill_derivs, hill_eval

# residual threshold, relative to the largest coefficient magnitude
_ACCEPT_TOL = 1e-10
# the positive float range the bisection searches
_TINY = math.ulp(0.0)
_HUGE = sys.float_info.max


@dataclasses.dataclass(frozen=True)
class Equilibrium:
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

    def state(self) -> np.ndarray:
        return np.array([self.x10, self.y10, self.x20, self.y20])


def equilibrium_poly_coeffs(p: ModelParams) -> np.ndarray:
    """Coefficients of the equilibrium polynomial, ascending by degree.

    Length n + 3 (degrees 0 .. n+2). Contributions landing on the same
    degree accumulate, which matters for small n where the low-degree
    block overlaps the Hill block.
    """
    coeffs = np.zeros(p.n + 3)
    base = p.b1 * p.b2 * p.a1
    coeffs[0] += -p.b2 * p.a * p.a2
    coeffs[1] += base * p.a * p.a2 - p.b2 * p.a * p.a21
    coeffs[2] += base * p.a * p.a21
    coeffs[p.n] += -p.b2 * p.a2
    coeffs[p.n + 1] += base * p.a2 + p.b1 * p.a12 - p.b2 * p.a21
    coeffs[p.n + 2] += base * p.a21
    return coeffs


def _poly_eval(coeffs: np.ndarray, x: float) -> float:
    # Horner on ascending coefficients
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _poly_eval_scaled(coeffs: np.ndarray, x: float) -> float:
    """p(x) / max(1, x)^deg for x > 0: same sign as p, no overflow.

    For x > 1 this is Horner in 1/x on the reversed coefficients, so
    degree-160+ polynomials can be evaluated far beyond x = 1 safely.
    """
    if x <= 1.0:
        return _poly_eval(coeffs, x)
    u = 1.0 / x
    acc = 0.0
    for c in coeffs:
        acc = acc * u + c
    return acc


def _poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    k = np.arange(1, len(coeffs))
    return coeffs[1:] * k


def _solve_y10(p: ModelParams) -> float:
    """The one positive root of g, bisected to adjacent floats.

    g(y) < 0 is tested as a1*y + load < 1/b1, so no step divides by a
    product that can underflow or subtracts infinities; a load that
    overflows reads as g > 0, which it is. The midpoint is geometric
    while the bracket spans more than a factor 4, then arithmetic, so a
    bracket over hundreds of decades takes a few dozen extra steps.
    """
    x10 = 1.0 / p.b1
    if x10 == math.inf:
        raise DomainError(f"x10 = 1/b1 overflows for b1={p.b1!r}")
    n, a1, a12, a2, a21, b2 = p.n, p.a1, p.a12, p.a2, p.a21, p.b2
    log_a = math.log(p.a)

    def below(y: float) -> bool:
        q = a12 * _hill_log(y, n, log_a)
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
    while True:
        mid = (math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo
               else lo + 0.5 * (hi - lo))
        if not lo < mid < hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _newton_polish(p: ModelParams, y: float) -> float:
    """Three Newton steps on the equilibrium polynomial from y.

    Skipped above y = 1e3, where Horner in y overflows for large n; a
    step that is not finite or that leaves (y/2, 2y) ends the polish.
    """
    if y >= 1e3:
        return y
    coeffs = equilibrium_poly_coeffs(p)
    # Python floats: the same bits as numpy scalars, faster per Horner
    cs, deriv = coeffs.tolist(), _poly_deriv(coeffs).tolist()
    root = y
    for _ in range(3):
        dr = _poly_eval(deriv, root)
        if dr == 0.0:
            break
        nxt = root - _poly_eval(cs, root) / dr
        if not 0.5 * y < nxt < 2.0 * y:
            break
        root = nxt
    return root


def build_equilibrium(p: ModelParams, y10: float) -> Equilibrium:
    """Assemble the full equilibrium from a validated protein level y10.

    y10 must be a positive float whose polynomial residual, scaled by the
    largest coefficient, is at most 1e-10; NaN fails that test.
    """
    if not 0.0 < y10 < math.inf:
        raise DomainError(
            f"equilibrium protein level must be positive and finite, got {y10!r}")
    cs = equilibrium_poly_coeffs(p).tolist()
    tol = _ACCEPT_TOL * max(map(abs, cs))
    while cs and cs[-1] == 0.0:
        cs.pop()
    # a non-finite coefficient makes resid or tol non-finite
    if not abs(_poly_eval_scaled(cs, y10)) <= tol < math.inf:
        raise DomainError(
            f"y10={y10!r} does not satisfy the equilibrium polynomial "
            "(scaled residual above tolerance)")
    f0 = hill_eval(y10, p)
    r1, r2, r3 = hill_derivs(y10, p)
    x20 = f0 / p.b2
    be = p.a2 + p.a21 * y10
    # b2*be can underflow where x20/be does not
    den = p.b2 * be
    eq = Equilibrium(
        x10=1.0 / p.b1,
        y10=float(y10),
        x20=x20,
        y20=f0 / den if den >= sys.float_info.min else x20 / be,
        rho1=r1, rho2=r2, rho3=r3,
    )
    if not all(map(math.isfinite, (eq.x10, eq.x20, eq.y20, r1, r2, r3))):
        raise DomainError(f"equilibrium is outside the float range: {eq}")
    return eq


def find_equilibria(p: ModelParams) -> list[Equilibrium]:
    """The positive equilibrium, which is unique, as a one-element list."""
    return [build_equilibrium(p, _newton_polish(p, _solve_y10(p)))]
