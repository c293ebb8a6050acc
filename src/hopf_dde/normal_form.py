"""Center-manifold reduction and Hopf normal-form coefficients.

At a crossing (omega_c, tau_c) the critical eigenspace is spanned by
Phi(theta) = v e^(lambda1 theta) with lambda1 = i omega_c, paired against
the adjoint row Psi(s) = w e^(lambda2 s) through the bilinear form

    <Psi, Phi> = Psi(0) Phi(0)
                 + integral_{-tau}^{0} Psi(xi + tau) B Phi(xi) d xi

normalized to one. Projecting the quadratic and cubic Taylor terms of the
delayed right-hand side onto this pair gives g20, g11, g02, g21 and

    C1(0) = (i / (2 omega_c)) (g20 g11 - 2|g11|^2 - |g02|^2 / 3) + g21 / 2
    mu2   = -Re C1 / Re(dlambda/dtau)
    beta2 = 2 Re C1
    T2    = -(Im C1 + mu2 Im(dlambda/dtau)) / omega_c

The quadratic blocks F20, F11, F02 and the cubic block behind g21 are the
one Hassard-Kazarinoff-Wan reduction of the model; the tests rederive them
from a symbolic Taylor expansion of the model equations. Classification
fields use the closed-form delay derivative (see stability module notes);
the strict implicit-route values ride along for comparison.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .equilibrium import Equilibrium
from .errors import DomainError, SingularSystemError
from .model import ModelParams
from .stability import HopfPoint, linearize

_ETA_TOL = 1e-12
_SOLVE_RESIDUAL_TOL = 1e-10
_COND_LIMIT = 1e12
_DEGENERATE_C1 = 1e-14


@dataclasses.dataclass(frozen=True)
class Eigenpair:
    """Right/left critical eigenvectors and the pairing normalization.

    w is already scaled so that <Psi, Phi> = 1; eta is the raw pairing of
    the unscaled row.
    """

    v: np.ndarray
    w: np.ndarray
    eta: complex
    lambda1: complex
    lambda2: complex


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """Normal-form coefficients and the derived Hopf classification."""

    g20: complex
    g11: complex
    g02: complex
    g21: complex
    E1: np.ndarray
    E2: np.ndarray
    C1: complex
    mu2: float
    beta2: float
    T2: float
    # companion values from the implicit delay derivative, plus the flag
    # raised when the two routes disagree on the crossing direction
    mu2_implicit: float
    T2_implicit: float
    dlambda_dtau: complex
    dlambda_dtau_implicit: complex
    transversality_conflict: bool
    direction: str
    orbit_stability: str
    period_trend: str


def right_eigenvector(p: ModelParams, eq: Equilibrium,
                      omega_c: float, tau_c: float) -> np.ndarray:
    """Null vector of lambda1 I - A - B e^(-lambda1 tau), v3 = 1 gauge."""
    if eq.rho1 == 0.0 or p.a12 == 0.0 or eq.y10 == 0.0:
        raise DomainError("right eigenvector undefined: rho1 * a12 * y10 = 0")
    al = p.a1 + p.a12 * eq.y20
    lam1 = 1j * omega_c
    ph = np.exp(lam1 * tau_c)
    return np.array([
        0.0,
        (lam1 + p.b2) / eq.rho1 * ph,
        1.0,
        -(lam1 + p.b2) * (lam1 + al) * ph**2 / (eq.rho1 * p.a12 * eq.y10),
    ], dtype=complex)


def left_eigenvector_raw(p: ModelParams, eq: Equilibrium,
                         omega_c: float, tau_c: float) -> np.ndarray:
    """Row null vector of the same matrix pencil, first component 1."""
    be = p.a2 + p.a21 * eq.y10
    lam1 = 1j * omega_c
    E = np.exp(-lam1 * tau_c)
    pref = -p.a12 * eq.y10 * E * (p.b1 + lam1)
    return np.array([
        1.0,
        p.b1 + lam1,
        pref / ((be + lam1) * (p.b2 + lam1)),
        pref / (be + lam1),
    ], dtype=complex)


def pairing_value(w_row: np.ndarray, v_col: np.ndarray, B: np.ndarray,
                  tau: float, rate_psi: complex, rate_phi: complex) -> complex:
    """Closed-form bilinear pairing of exponential eigenfunctions.

    <w e^(rate_psi s), v e^(rate_phi theta)> for the delay form above;
    the integral reduces to (1 - e^(-mu tau)) / mu with
    mu = rate_psi + rate_phi (tau in the mu -> 0 limit).
    """
    mu = rate_psi + rate_phi
    if abs(mu) < 1e-14:
        integral = tau
    else:
        integral = (1.0 - np.exp(-mu * tau)) / mu
    return (w_row @ v_col
            + np.exp(rate_psi * tau) * (w_row @ B @ v_col) * integral)


def compute_eigenpair(p: ModelParams, eq: Equilibrium,
                      omega_c: float, tau_c: float) -> Eigenpair:
    """Right/left pair with the pairing normalized to one."""
    lam1 = 1j * omega_c
    v = right_eigenvector(p, eq, omega_c, tau_c)
    wh = left_eigenvector_raw(p, eq, omega_c, tau_c)
    B = linearize(p, eq).B
    eta = wh @ (np.eye(4) + tau_c * np.exp(-lam1 * tau_c) * B) @ v
    if abs(eta) < _ETA_TOL * (np.linalg.norm(wh) * np.linalg.norm(v)):
        raise SingularSystemError("pairing normalization is singular")
    return Eigenpair(v=v, w=wh / eta, eta=complex(eta),
                     lambda1=lam1, lambda2=-lam1)


def _quadratic_blocks(p: ModelParams, eq: Equilibrium, v: np.ndarray,
                      lam1: complex, tau: float) -> tuple[np.ndarray, ...]:
    E1x = np.exp(-lam1 * tau)
    E2x = np.conj(E1x)
    v2, v4 = v[1], v[3]
    r2 = eq.rho2
    F20 = np.array([
        0.0,
        -2.0 * p.a12 * v2 * v4 * E1x,
        r2 * v2**2 * E1x**2,
        -2.0 * p.a21 * v2 * v4 * E1x,
    ], dtype=complex)
    F11 = np.array([
        0.0,
        -p.a12 * (v2 * np.conj(v4) * E2x + np.conj(v2) * v4 * E1x),
        r2 * v2 * np.conj(v2),
        -p.a21 * (v2 * np.conj(v4) * E1x + v4 * np.conj(v2) * E2x),
    ], dtype=complex)
    F02 = np.array([
        0.0,
        -2.0 * p.a12 * np.conj(v2) * np.conj(v4) * E2x,
        r2 * np.conj(v2) ** 2 * E2x**2,
        -2.0 * p.a21 * np.conj(v2) * np.conj(v4) * E2x,
    ], dtype=complex)
    return F20, F11, F02


def g_quadratic(p: ModelParams, eq: Equilibrium, ep: Eigenpair, tau_c: float,
                ) -> tuple[complex, complex, complex, np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic projections (g20, g11, g02) and the raw F-blocks."""
    F20, F11, F02 = _quadratic_blocks(p, eq, ep.v, ep.lambda1, tau_c)
    w = ep.w
    return (complex(w @ F20), complex(w @ F11), complex(w @ F02),
            F20, F11, F02)


def solve_E_vectors(p: ModelParams, eq: Equilibrium, omega_c: float,
                    tau_c: float, F20: np.ndarray, F11: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Particular-solution vectors of the w20/w11 boundary problems.

    E2 solves (A + B e^(-2 lambda1 tau) - 2 lambda1 I) E2 = -F20 and
    E1 solves (A + B) E1 = -F11. Raises on ill-conditioned systems and
    verifies solve residuals.
    """
    lin = linearize(p, eq)
    lam1 = 1j * omega_c
    M2 = lin.A + lin.B * np.exp(-2.0 * lam1 * tau_c) - 2.0 * lam1 * np.eye(4)
    M1 = (lin.A + lin.B).astype(complex)
    for M in (M1, M2):
        if np.linalg.cond(M) > _COND_LIMIT:
            raise SingularSystemError(
                "resonant or near-singular E-vector system "
                "(2 lambda1 or 0 is close to a characteristic root)")
    E2 = -np.linalg.solve(M2, F20.astype(complex))
    E1 = -np.linalg.solve(M1, F11.astype(complex))
    for M, E, F in ((M2, E2, F20), (M1, E1, F11)):
        res = np.linalg.norm(M @ E + F)
        if res > _SOLVE_RESIDUAL_TOL * max(1.0, np.linalg.norm(F)):
            raise SingularSystemError(f"E-vector solve residual {res:.3e}")
    return E1, E2


def make_w_evaluators(ep: Eigenpair, g20: complex, g11: complex, g02: complex,
                      E1: np.ndarray, E2: np.ndarray, omega_c: float):
    """Component evaluators w20(idx, theta) and w11(idx, theta).

    These are the quadratic center-manifold coefficient functions on
    [-tau, 0]; their values at 0 and -tau feed the cubic projection.
    """
    lam1 = 1j * omega_c
    lam2 = -lam1
    v = ep.v

    def w20(idx: int, theta: float) -> complex:
        return (-(g20 / lam1) * v[idx] * np.exp(lam1 * theta)
                - (np.conj(g02) / (3.0 * lam1)) * np.conj(v[idx])
                * np.exp(lam2 * theta)
                + E2[idx] * np.exp(2.0 * lam1 * theta))

    def w11(idx: int, theta: float) -> complex:
        return ((g11 / lam1) * v[idx] * np.exp(lam1 * theta)
                - (np.conj(g11) / lam1) * np.conj(v[idx]) * np.exp(lam2 * theta)
                + E1[idx])

    return w20, w11


def g_cubic(p: ModelParams, eq: Equilibrium, ep: Eigenpair, tau_c: float,
            g20: complex, g11: complex, g02: complex,
            E1: np.ndarray, E2: np.ndarray) -> complex:
    """Cubic projection g21 from the quadratic manifold coefficients."""
    lam1 = ep.lambda1
    tau = tau_c
    E1x = np.exp(-lam1 * tau)
    E2x = np.conj(E1x)
    v2, v4 = ep.v[1], ep.v[3]
    r2, r3 = eq.rho2, eq.rho3
    w20, w11 = make_w_evaluators(ep, g20, g11, g02, E1, E2, float(lam1.imag))
    F21_2 = -p.a12 * (2.0 * v2 * w11(3, -tau)
                      + np.conj(v2) * w20(3, -tau)
                      + np.conj(v4) * w20(1, 0.0) * E2x
                      + 2.0 * v4 * w11(1, 0.0) * E1x)
    F21_3 = (r2 * (2.0 * v2 * w11(1, -tau) * E1x
                   + np.conj(v2) * w20(1, -tau) * E2x)
             + r3 * v2**2 * np.conj(v2) * E1x)
    F21_4 = -p.a21 * (2.0 * v2 * w11(3, 0.0) * E1x
                      + np.conj(v2) * w20(3, 0.0) * E2x
                      + np.conj(v4) * w20(1, -tau)
                      + 2.0 * v4 * w11(1, -tau))
    w = ep.w
    return complex(F21_2 * w[1] + F21_3 * w[2] + F21_4 * w[3])


def hopf_quantities(g20: complex, g11: complex, g02: complex, g21: complex,
                    dlambda_dtau: complex, omega_c: float,
                    ) -> tuple[complex, float, float, float]:
    """(C1, mu2, beta2, T2) from the projections and a delay derivative.

    Source-agnostic in dlambda_dtau: pass whichever delay-derivative
    evaluation the classification should be based on. Raises if the
    first Lyapunov quantity is degenerate (|Re C1| < 1e-14) or the
    crossing is tangent (Re dlambda = 0).
    """
    C1 = ((1j / (2.0 * omega_c))
          * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0)
          + g21 / 2.0)
    if abs(C1.real) < _DEGENERATE_C1:
        raise SingularSystemError(
            "degenerate Hopf point: |Re C1| < 1e-14, classification undefined")
    if dlambda_dtau.real == 0.0:
        raise SingularSystemError("tangent crossing: Re dlambda/dtau = 0")
    mu2 = -C1.real / dlambda_dtau.real
    beta2 = 2.0 * C1.real
    T2 = -(C1.imag + mu2 * dlambda_dtau.imag) / omega_c
    return C1, mu2, beta2, T2


def compute_normal_form(p: ModelParams, eq: Equilibrium, hp: HopfPoint,
                        ) -> NormalForm:
    """Full reduction at a Hopf point.

    mu2/beta2/T2 use the closed-form delay derivative; the implicit-route
    companions are attached, with a conflict flag when the two disagree
    on the sign of the crossing speed.
    """
    ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
    g20, g11, g02, F20, F11, _ = g_quadratic(p, eq, ep, hp.tau_c)
    E1, E2 = solve_E_vectors(p, eq, hp.omega_c, hp.tau_c, F20, F11)
    g21 = g_cubic(p, eq, ep, hp.tau_c, g20, g11, g02, E1, E2)
    C1, mu2, beta2, T2 = hopf_quantities(
        g20, g11, g02, g21, hp.dlambda_dtau_closed, hp.omega_c)
    _, mu2_i, _, T2_i = hopf_quantities(
        g20, g11, g02, g21, hp.dlambda_dtau, hp.omega_c)
    conflict = (hp.dlambda_dtau.real > 0.0) != (hp.dlambda_dtau_closed.real > 0.0)
    return NormalForm(
        g20=g20, g11=g11, g02=g02, g21=g21, E1=E1, E2=E2, C1=C1,
        mu2=mu2, beta2=beta2, T2=T2,
        mu2_implicit=mu2_i, T2_implicit=T2_i,
        dlambda_dtau=hp.dlambda_dtau_closed,
        dlambda_dtau_implicit=hp.dlambda_dtau,
        transversality_conflict=conflict,
        direction="supercritical" if mu2 > 0.0 else "subcritical",
        orbit_stability="stable" if beta2 < 0.0 else "unstable",
        period_trend="increasing" if T2 > 0.0 else "decreasing",
    )
