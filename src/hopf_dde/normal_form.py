"""Hopf normal-form coefficients from the characteristic matrix.

At a crossing (omega_c, tau_c) the characteristic matrix
Delta(lambda) = lambda I - A - B e^(-lambda tau) is singular at
lambda1 = i omega_c, with null vector v and null row w; w is scaled so
that the bilinear pairing w (I + tau B e^(-lambda1 tau)) v of
Phi = v e^(lambda1 theta) and Psi = w e^(-lambda1 s) is one. An
exponential enters the delayed right-hand side only through its value and
delayed value; on such pairs u = (u0, ud), _B2 and _C3 give the model's
second and third derivative forms. With q = (v, v e^(-lambda1 tau)), its
conjugate qb, E2 = Delta(2 lambda1)^-1 B2(q, q) and
E1 = Delta(0)^-1 B2(q, qb), the first Lyapunov coefficient in
characteristic-matrix form (Kuznetsov, Elements of Applied Bifurcation
Theory, sections 3.5 and 8.7; Bosschaert, Janssens and Kuznetsov, SIAM J.
Appl. Dyn. Syst. 19, 2020) is the paper's Hassard-Kazarinoff-Wan C1(0):

    C1    = w [C3(q, q, qb) + B2(qb, (E2, E2 e^(-2 lambda1 tau)))
               + 2 B2(q, (E1, E1))] / 2
    mu2   = -Re C1 / Re(dlambda/dtau),  beta2 = 2 Re C1
    T2    = -(Im C1 + mu2 Im(dlambda/dtau)) / omega_c

The report keeps the projections g20, g11, g02 = w B2(q, q), w B2(q, qb),
w B2(qb, qb) and g21 = 2 C1 - (i / omega_c)(g20 g11 - 2|g11|^2 - |g02|^2/3),
which the tests rederive from a symbolic Taylor expansion of the model.
The E-vector systems are solved from their entries: the x1 row by division,
the y1, x2, y2 rows by Cramer's rule, whose determinant Delta(lambda, tau)
(d + h at lambda = 0) is the one resonance check for both. Classification
fields use the closed-form delay derivative (see stability module notes);
the strict implicit-route values ride along for comparison.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .equilibrium import Equilibrium
from .errors import DomainError, SingularSystemError
from .model import ModelParams
from .stability import HopfPoint

_ETA_TOL = 1e-12
_SOLVE_RESIDUAL_TOL = 1e-10
_RESONANCE_TOL = 1e-12
_DEGENERATE_C1 = 1e-12

#: a complex 4-vector, entries in state order (x1, y1, x2, y2)
Vec = tuple[complex, complex, complex, complex]


class Eigenpair(NamedTuple):
    """Right/left critical eigenvectors and the pairs of Phi and its conjugate.

    w is already scaled so that <Psi, Phi> = 1; q = (v, v e^(-lambda1 tau))
    and qb, its conjugate, are (value, delayed value) pairs.
    """

    v: Vec
    w: Vec
    lambda1: complex
    q: tuple[Vec, Vec]
    qb: tuple[Vec, Vec]


class NormalForm(NamedTuple):
    """Normal-form coefficients and the derived Hopf classification."""

    g20: complex
    g11: complex
    g02: complex
    g21: complex
    E1: Vec
    E2: Vec
    C1: complex
    mu2: float
    beta2: float
    T2: float
    # companion values from the implicit delay derivative, plus the flag
    # raised when the two routes disagree on the crossing direction
    mu2_implicit: float
    T2_implicit: float
    transversality_conflict: bool
    direction: str
    orbit_stability: str
    period_trend: str


def _dot(w: Vec, u: Vec) -> complex:
    """w u for a u whose x1 entry is zero: v, and every B2 and C3 value."""
    return w[1] * u[1] + w[2] * u[2] + w[3] * u[3]


def _conj(u: Vec) -> Vec:
    return tuple(z.conjugate() for z in u)


def right_eigenvector(p: ModelParams, eq: Equilibrium,
                      omega_c: float, tau_c: float) -> Vec:
    """Null vector of lambda1 I - A - B e^(-lambda1 tau), v3 = 1 gauge."""
    if eq.rho1 == 0.0 or p.a12 == 0.0 or eq.y10 == 0.0:
        raise DomainError("right eigenvector undefined: rho1 * a12 * y10 = 0")
    al = p.a1 + p.a12 * eq.y20
    lam1 = 1j * omega_c
    ph = cmath.exp(lam1 * tau_c)
    return (0j,
            (lam1 + p.b2) / eq.rho1 * ph,
            1.0 + 0j,
            -(lam1 + p.b2) * (lam1 + al) * ph**2 / (eq.rho1 * p.a12 * eq.y10))


def left_eigenvector_raw(p: ModelParams, eq: Equilibrium,
                         omega_c: float, tau_c: float) -> Vec:
    """Row null vector of the same matrix pencil, first component 1."""
    be = p.a2 + p.a21 * eq.y10
    lam1 = 1j * omega_c
    E = cmath.exp(-lam1 * tau_c)
    pref = -p.a12 * eq.y10 * E * (p.b1 + lam1)
    return (1.0 + 0j,
            p.b1 + lam1,
            pref / ((be + lam1) * (p.b2 + lam1)),
            pref / (be + lam1))


def compute_eigenpair(p: ModelParams, eq: Equilibrium,
                      omega_c: float, tau_c: float) -> Eigenpair:
    """Right/left pair with the pairing normalized to one, and q, qb."""
    lam1 = 1j * omega_c
    v = right_eigenvector(p, eq, omega_c, tau_c)
    wh = left_eigenvector_raw(p, eq, omega_c, tau_c)
    e = cmath.exp(-lam1 * tau_c)
    # w B v from B's three nonzero entries: B[1,3] = -a12 y10,
    # B[2,1] = rho1 and B[3,1] = -a21 y20
    wBv = ((eq.rho1 * wh[2] - p.a21 * eq.y20 * wh[3]) * v[1]
           - p.a12 * eq.y10 * wh[1] * v[3])
    tail = tau_c * e * wBv
    eta = _dot(wh, v) + tail
    if abs(eta) < _ETA_TOL * (sum(abs(a * b) for a, b in zip(wh, v)) + abs(tail)):
        raise SingularSystemError("pairing normalization is singular")
    vd = tuple(z * e for z in v)
    return Eigenpair(v=v, w=tuple(z / eta for z in wh), lambda1=lam1,
                     q=(v, vd), qb=(_conj(v), _conj(vd)))


def _B2(p: ModelParams, eq: Equilibrium, u, v) -> Vec:
    """Second derivative form on (value, delayed value) pairs u and v."""
    (u0, ud), (v0, vd) = u, v
    return (0j,
            -p.a12 * (u0[1] * vd[3] + v0[1] * ud[3]),
            eq.rho2 * ud[1] * vd[1],
            -p.a21 * (ud[1] * v0[3] + vd[1] * u0[3]))


def _C3(eq: Equilibrium, u, v, s) -> Vec:
    """Third derivative form: only the Hill term is cubic."""
    return (0j, 0j, eq.rho3 * u[1][1] * v[1][1] * s[1][1], 0j)


def g_quadratic(p: ModelParams, eq: Equilibrium, ep: Eigenpair, tau_c: float,
                ) -> tuple[complex, complex, complex, Vec, Vec, Vec]:
    """Quadratic projections (g20, g11, g02) and the blocks F20, F11, F02.

    ep.q and ep.qb already carry the delay tau_c.
    """
    q, qb, w = ep.q, ep.qb, ep.w
    F20, F11, F02 = _B2(p, eq, q, q), _B2(p, eq, q, qb), _B2(p, eq, qb, qb)
    return _dot(w, F20), _dot(w, F11), _dot(w, F02), F20, F11, F02


def solve_E_vectors(p: ModelParams, eq: Equilibrium, omega_c: float,
                    tau_c: float, F20: Vec, F11: Vec) -> tuple[Vec, Vec]:
    """E1 = Delta(0)^-1 F11 and E2 = Delta(2 i omega_c)^-1 F20.

    F11 = B2(q, qb) and Delta(0) are real, so E1 is solved in real
    arithmetic from F11's real parts (its imaginary parts are rounding
    residue) and has imaginary parts exactly +0. Raises when the pivot
    Delta(lambda, tau) vanishes relative to its terms' moduli (a
    resonance) and verifies the solve residuals.
    """
    al, be = p.a1 + p.a12 * eq.y20, p.a2 + p.a21 * eq.y10
    k12, k21, r1 = p.a12 * eq.y10, p.a21 * eq.y20, eq.rho1
    out = []
    for lam, F in ((0.0, tuple(f.real for f in F11)), (2j * omega_c, F20)):
        e = cmath.exp(-lam * tau_c) if lam else 1.0
        la, lb, le = lam + al, lam + p.b2, lam + be
        det = la * lb * le + k12 * e * e * (r1 - k21 * lb)
        scale = abs(la * lb * le) + k12 * abs(e) ** 2 * (abs(r1) + k21 * abs(lb))
        if abs(det) <= _RESONANCE_TOL * scale:
            raise SingularSystemError(
                f"resonant E-vector system ({lam!r} is a characteristic root)")
        f0, f1, f2, f3 = F
        u0 = f0 / (lam + p.b1)
        f1 += u0
        u1 = (f1 * lb * le - k12 * e * (lb * f3 + f2)) / det
        u2 = (la * le * f2 + r1 * e * le * f1 - k12 * e * e * (r1 * f3 + k21 * f2)) / det
        u3 = (la * (lb * f3 + f2) + e * f1 * (r1 - k21 * lb)) / det
        res = math.hypot(abs((lam + p.b1) * u0 - f0),
                         abs(la * u1 + k12 * e * u3 - f1),
                         abs(lb * u2 - r1 * e * u1 - f2),
                         abs(k21 * e * u1 - u2 + le * u3 - f3))
        if res > _SOLVE_RESIDUAL_TOL * max(1.0, math.hypot(*map(abs, F))):
            raise SingularSystemError(f"E-vector solve residual {res:.3e}")
        out.append((complex(u0), complex(u1), complex(u2), complex(u3)))
    return out[0], out[1]


def hopf_quantities(C1: complex, dlambda_dtau: complex, omega_c: float,
                    ) -> tuple[float, float, float]:
    """(mu2, beta2, T2) from the first Lyapunov coefficient C1.

    Source-agnostic in dlambda_dtau: pass whichever delay-derivative
    evaluation the classification should be based on. Raises if the
    first Lyapunov quantity vanishes (Re C1 = 0) or the crossing is
    tangent (Re dlambda = 0).
    """
    if C1.real == 0.0:
        raise SingularSystemError(
            "degenerate Hopf point: Re C1 = 0, classification undefined")
    if dlambda_dtau.real == 0.0:
        raise SingularSystemError("tangent crossing: Re dlambda/dtau = 0")
    mu2 = -C1.real / dlambda_dtau.real
    beta2 = 2.0 * C1.real
    T2 = -(C1.imag + mu2 * dlambda_dtau.imag) / omega_c
    return mu2, beta2, T2


def compute_normal_form(p: ModelParams, eq: Equilibrium, hp: HopfPoint,
                        ) -> NormalForm:
    """Full reduction at a Hopf point.

    mu2/beta2/T2 use the closed-form delay derivative; the implicit-route
    companions are attached, with a conflict flag when the two disagree
    on the sign of the crossing speed.
    """
    omega, tau = hp.omega_c, hp.tau_c
    ep = compute_eigenpair(p, eq, omega, tau)
    g20, g11, g02, F20, F11, _ = g_quadratic(p, eq, ep, tau)
    E1, E2 = solve_E_vectors(p, eq, omega, tau, F20, F11)
    q, qb, w = ep.q, ep.qb, ep.w
    e2 = cmath.exp(-2.0 * ep.lambda1 * tau)
    h20 = (E2, tuple(z * e2 for z in E2))
    terms = (_dot(w, _C3(eq, q, q, qb)), _dot(w, _B2(p, eq, qb, h20)),
             2.0 * _dot(w, _B2(p, eq, q, (E1, E1))))
    C1 = 0.5 * (terms[0] + terms[1] + terms[2])
    if abs(C1.real) <= _DEGENERATE_C1 * 0.5 * sum(map(abs, terms)):
        raise SingularSystemError(
            "degenerate Hopf point: Re C1 vanishes against its terms")
    g21 = 2.0 * C1 - (1j / omega) * (
        g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0)
    mu2, beta2, T2 = hopf_quantities(C1, hp.dlambda_dtau_closed, omega)
    mu2_i, _, T2_i = hopf_quantities(C1, hp.dlambda_dtau, omega)
    conflict = (hp.dlambda_dtau.real > 0.0) != (hp.dlambda_dtau_closed.real > 0.0)
    return NormalForm(
        g20=g20, g11=g11, g02=g02, g21=g21, E1=E1, E2=E2, C1=C1,
        mu2=mu2, beta2=beta2, T2=T2,
        mu2_implicit=mu2_i, T2_implicit=T2_i,
        transversality_conflict=conflict,
        direction="supercritical" if mu2 > 0.0 else "subcritical",
        orbit_stability="stable" if beta2 < 0.0 else "unstable",
        period_trend="increasing" if T2 > 0.0 else "decreasing",
    )
