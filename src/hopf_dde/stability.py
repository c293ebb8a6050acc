"""Linear stability and Hopf crossing analysis.

Linearizing about a positive equilibrium gives u' = A u + B u(t - tau)
whose characteristic function factors as

    det(lambda I - A - B e^(-lambda tau))
        = (lambda + b1) * Delta(lambda, tau)
    Delta = lambda^3 + b lambda^2 + c lambda + d
            + (g lambda + h) e^(-2 lambda tau)

The delayed terms enter squared because both feedback legs carry the same
delay. Purely imaginary roots lambda = i*omega of Delta satisfy the real
cubic F(z) = z^3 + l1 z^2 + l2 z + l3 at z = omega^2, and a positive
simple root yields a ladder of critical delays tau_k.

With al = a1 + a12*y20, be = a2 + a21*y10, k12 = a12*y10, k21 = a21*y20,
two identities hold exactly, with every term positive (rho1 = f'(y10) >= 0):
s = al*be - k12*k21 = a1*a2 + a1*a21*y10 + a2*a12*y20 and
d + h = b2*s + k12*rho1. So l2 = s*(al*be + k12*k21) + b2^2*(al^2 + be^2)
> 0 and d + h > 0 for every valid parameter set, and char_coeffs takes l2
and l3 = (d - h)(d + h) from them without cancellation. With
l1 = al^2 + be^2 + b2^2 > 0, F increases on z > 0 and has one positive
root iff l3 < 0, where F' > 0; by the sign rule of Cooke and van den
Driessche (1986; Beretta and Kuang 2002), sign Re dlambda/dtau =
sign F'(omega^2), so every crossing destabilizes.

Two delay-derivative evaluations are provided. `transversality` is the
implicit-differentiation value (it matches root continuation and is the
ground truth for crossing direction). `transversality_closed_form` is a
trigonometric L1/L2 evaluation that swaps the roles of g and h in two
places relative to the exact form; downstream direction classification is
calibrated against it for comparability with existing reference tables,
and reports flag whenever the two disagree in sign. The sign rule sides
with the implicit value; the closed form contradicts it on n2, n4 and
n163.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .equilibrium import Equilibrium, _newton_bisect
from .errors import DomainError, SingularSystemError
from .model import ModelParams

#: a denominator within this fraction of the sum of its terms' moduli
#: counts as vanishing
_DEGENERATE_DENOM = 1e-12
_UNIT_MODULUS_TOL = 1e-8
_AT_BIFURCATION_TOL = 1e-9


class CharCoeffs(NamedTuple):
    """Coefficients of Delta and of the frequency cubic F, and the two
    sides of the zero-delay stability condition (routh_hurwitz_stable)."""

    b: float
    c: float
    d: float
    g: float
    h: float
    l1: float
    l2: float
    l3: float
    rh_left: float
    rh_right: float


class HopfPoint(NamedTuple):
    """A candidate Hopf crossing: frequency, delay, and delay derivatives.

    dlambda_dtau is the implicit-differentiation value; the _closed fields
    carry the L1/L2 trigonometric evaluation used for classification.
    """

    omega_c: float
    tau_c: float
    dlambda_dtau: complex
    dlambda_dtau_closed: complex
    L1: float
    L2: float


def char_coeffs(p: ModelParams, eq: Equilibrium) -> CharCoeffs:
    al = p.a1 + p.a12 * eq.y20
    be = p.a2 + p.a21 * eq.y10
    k12, k21 = p.a12 * eq.y10, p.a21 * eq.y20
    b = al + be + p.b2
    c = al * be + p.b2 * (al + be)
    d = p.b2 * al * be
    g = -k12 * k21
    h = -k12 * (p.b2 * k21 - eq.rho1)
    s = p.a1 * p.a2 + p.a1 * p.a21 * eq.y10 + p.a2 * p.a12 * eq.y20
    l1 = b * b - 2.0 * c
    l2 = s * (al * be + k12 * k21) + p.b2 ** 2 * (al * al + be * be)
    l3 = (p.b2 * (al * be + k12 * k21) - k12 * eq.rho1) * (p.b2 * s + k12 * eq.rho1)
    rh_left = (al + be) * (s + p.b2 * b)
    rh_right = k12 * eq.rho1
    cc = CharCoeffs(b=b, c=c, d=d, g=g, h=h, l1=l1, l2=l2, l3=l3,
                    rh_left=rh_left, rh_right=rh_right)
    if not all(map(math.isfinite, (b, c, d, g, h, l1, l2, l3, rh_left, rh_right))):
        raise DomainError(f"characteristic coefficients leave the float range: {cc}")
    return cc


def routh_hurwitz_stable(cc: CharCoeffs) -> bool:
    """Stability of the cubic factor at tau = 0.

    At zero delay Delta reduces to lambda^3 + b lambda^2 + (c+g) lambda
    + (d+h); all roots lie in the open left half plane iff b > 0,
    d + h > 0, and b (c + g) > d + h. The first two hold for every valid
    parameter set (see the module docstring). The sums c + g and d + h
    cancel, so the third is taken as
        b (c + g) - (d + h) = (al + be)(s + b2 b) - k12 rho1,
    a comparison of two positive products, cc.rh_left > cc.rh_right.
    """
    return cc.rh_left > cc.rh_right


def _cubic(z: float, l1: float, l2: float, l3: float) -> float:
    """F(z) = z^3 + l1 z^2 + l2 z + l3 by Horner's rule."""
    return ((z + l1) * z + l2) * z + l3


def _cubic_slope(z: float, l1: float, l2: float) -> float:
    """F'(z) = 3 z^2 + 2 l1 z + l2, positive on z > 0 when l1, l2 >= 0."""
    return (3.0 * z + 2.0 * l1) * z + l2


def _cubic_positive_root(l1: float, l2: float, l3: float) -> float | None:
    """The positive root of F(z) = z^3 + l1 z^2 + l2 z + l3, or None.

    char_coeffs gives l1 > 0 and l2 > 0, so F increases on z > 0 and has a
    positive root iff l3 < 0, a simple one. As F(z) >= z^3 + l3,
    F(z) >= l2 z + l3 and F(z) >= l1 z^2 + l3 there, the root lies below
    min((-l3)^(1/3), -l3/l2, (-l3/l1)^(1/2)), and above a third of it.
    Every term of F but l3 is non-negative, so a term that overflows reads
    +inf, which has the sign of F there, and no rescaling is needed.

    The result is the first float z > 0 with F(z) >= 0, F by _cubic. With
    l1, l2 >= 0 each rounded operation of Horner's rule is monotone in z,
    so the float F is non-decreasing and that float is unique: any bracket
    of it gives the same one. F is convex and increasing, so Newton steps
    from the upper bound converge to the root from above. They run in
    _newton_bisect, the equilibrium's loop too, which keeps a bracket
    (lo, hi) with F(lo) < 0 <= F(hi) and bisects it where Newton stalls
    (F' overflowing, or F a subnormal staircase).
    """
    if not (l1 >= 0.0 and l2 >= 0.0):
        raise DomainError(f"frequency cubic needs l1, l2 >= 0, got {l1!r}, {l2!r}")
    if not l3 < 0.0:
        return None
    top = min((-l3) ** (1.0 / 3.0), -l3 / l2 if l2 > 0.0 else math.inf)
    z = min(top, math.sqrt(-l3 / l1)) if l1 > 0.0 else top
    return _newton_bisect(
        lambda z: (_cubic(z, l1, l2, l3), _cubic_slope(z, l1, l2)), z, 0.0, 2.0 * top)


def _ladder_phase(omega: float, cc: CharCoeffs) -> float:
    """arg G(i omega) in [0, 2 pi), G = -(g lambda + h) / cubic part."""
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    lam = 1j * omega
    den = lam**3 + cc.b * lam**2 + cc.c * lam + cc.d
    scale = ((omega + abs(cc.b)) * omega + abs(cc.c)) * omega + abs(cc.d)
    if abs(den) <= _DEGENERATE_DENOM * scale:
        raise DomainError("cubic part vanishes at i*omega; ratio undefined")
    G = -(cc.g * lam + cc.h) / den
    if abs(abs(G) - 1.0) > _UNIT_MODULUS_TOL:
        raise DomainError(
            f"|G(i omega)| = {abs(G)!r} differs from 1; "
            "omega is not a crossing frequency")
    arg = cmath.phase(G)
    return arg + 2.0 * math.pi if arg < 0.0 else arg


def critical_delays(omega: float, cc: CharCoeffs, k_max: int = 8) -> list[float]:
    """Delay ladder tau_k at which lambda = i*omega solves Delta = 0.

    tau_k = (arg G(i omega) + 2 pi k) / (2 omega) with the argument taken
    in [0, 2 pi), k = 0..k_max. Requires |G(i omega)| = 1 (the defining
    property of a crossing frequency); raises DomainError otherwise.
    """
    arg = _ladder_phase(omega, cc)
    taus = [(arg + 2.0 * math.pi * k) / (2.0 * omega) for k in range(k_max + 1)]
    return [t for t in taus if t > 0.0]


def transversality(omega_c: float, tau_c: float, cc: CharCoeffs) -> complex:
    """d lambda / d tau at the crossing, by implicit differentiation.

    Matches Newton continuation of the characteristic root. Raises when
    the denominator is near zero against the sum of its terms' moduli
    (degenerate crossing).
    """
    lam = 1j * omega_c
    E = cmath.exp(-2.0 * lam * tau_c)
    gh = cc.g * lam + cc.h
    num = 2.0 * lam * gh * E
    den = 3.0 * lam**2 + 2.0 * cc.b * lam + cc.c + (cc.g - 2.0 * tau_c * gh) * E
    scale = ((3.0 * omega_c + 2.0 * abs(cc.b)) * omega_c + abs(cc.c)
             + (abs(cc.g) + 2.0 * tau_c * abs(gh)) * abs(E))
    if abs(den) <= _DEGENERATE_DENOM * scale:
        raise SingularSystemError("transversality denominator vanishes")
    return num / den


def transversality_closed_form(
        omega_c: float, tau_c: float, cc: CharCoeffs) -> tuple[complex, float, float]:
    """Trigonometric L1/L2 evaluation of d lambda / d tau.

    Returns (value, L1, L2). This form interchanges g and h in the
    tau-proportional terms and numerator weights relative to the exact
    expression; it is retained because the direction/period classification
    shipped by this package is calibrated against reference tables
    computed with it. Compare with `transversality`, which is exact.
    """
    w, t = omega_c, tau_c
    b, c, g, h = cc.b, cc.c, cc.g, cc.h
    co = math.cos(2.0 * w * t)
    si = math.sin(2.0 * w * t)
    L1 = (c - 3.0 * w * w) * co - 2.0 * b * w * si - 2.0 * g * t + h
    L2 = (c - 3.0 * w * w) * si + 2.0 * b * w * co - 2.0 * h * w * t
    den = L1 * L1 + L2 * L2
    # L1 and L2 against the sums of their terms' moduli
    cw, bw = abs(c) + 3.0 * w * w, 2.0 * abs(b) * w
    S1 = cw * abs(co) + bw * abs(si) + 2.0 * abs(g) * t + abs(h)
    S2 = cw * abs(si) + bw * abs(co) + 2.0 * abs(h) * w * t
    if den <= _DEGENERATE_DENOM**2 * (S1 * S1 + S2 * S2):
        raise SingularSystemError("closed-form denominator vanishes")
    re = 2.0 * (w * g * L2 + w * w * h * L1) / den
    im = 2.0 * (w * g * L1 + w * w * h * L2) / den
    return complex(re, im), L1, L2


def hopf_candidates(cc: CharCoeffs, k_max: int = 8) -> tuple[float, list[float]] | None:
    """The crossing (omega, [tau_k]), or None: F has at most one positive
    root. The name stays: perfbench traces pipeline.hopf_candidates."""
    z = _cubic_positive_root(cc.l1, cc.l2, cc.l3)
    if z is None:
        return None
    omega = math.sqrt(z)
    return omega, critical_delays(omega, cc, k_max)


def first_hopf(cc: CharCoeffs,
               crossing: tuple[float, list[float]] | None) -> HopfPoint | None:
    """The crossing hopf_candidates(cc, k_max) gave, at its first positive
    delay, with both derivatives; None without a crossing or a delay."""
    if crossing is None or not crossing[1]:
        return None
    omega, (tau, *_) = crossing
    dl = transversality(omega, tau, cc)
    dl_closed, L1, L2 = transversality_closed_form(omega, tau, cc)
    return HopfPoint(omega_c=omega, tau_c=tau, dlambda_dtau=dl,
                     dlambda_dtau_closed=dl_closed, L1=L1, L2=L2)


def classify_stability(cc: CharCoeffs, tau: float,
                       crossing: tuple[float, list[float]] | None) -> str:
    """Verdict at a given delay: 'stable', 'unstable' or 'at-bifurcation'.

    crossing is what hopf_candidates(cc, k_max) returned; only its
    frequency is read, so the cubic is solved once per branch.
    'at-bifurcation' within 1e-9 of any critical delay: the rung nearest
    tau is found in closed form from the ladder's own expression. Otherwise
    the verdict combines zero-delay stability with the position of tau
    relative to the first crossing. That is exact for this model: F has
    at most one positive root, and by the Cooke-van den Driessche sign
    rule every crossing destabilizes (see the module docstring).
    """
    if not tau >= 0.0:
        raise DomainError(f"delay must be non-negative, got {tau!r}")
    if crossing is not None:
        w = crossing[0]
        # the phase again, one complex division, not a field of the crossing
        arg = _ladder_phase(w, cc)
        # rounded to a float, so that an infinite tau cannot overflow
        k = max(0.0, round((2.0 * w * tau - arg) / (2.0 * math.pi), 0))
        if abs(tau - (arg + 2.0 * math.pi * k) / (2.0 * w)) < _AT_BIFURCATION_TOL:
            return "at-bifurcation"
        if tau > arg / (2.0 * w):
            return "unstable"
    return "stable" if routh_hurwitz_stable(cc) else "unstable"
