"""Float reference builders: the model's right-hand side, its
linearization, the characteristic root by Newton continuation, and the
bilinear pairing by quadrature.

The package computes on the structure of these objects (the
characteristic coefficients, the E-vector entries, the integrator's
inline stages) and never builds them; the tests build them here, term by
term from the model equations, and compare the package against them.
"""

import cmath
import math
import types

import numpy as np

import reference_mp
from hopf_dde.model import IX1, IX2, IY1, IY2, _hill_log


def rhs(state, delayed, p):
    """Right-hand side of the delay system on state vectors.

    state: (x1, y1, x2, y2) at time t; delayed: the same components at
    t - tau (only y1, y2 of it are used). Components may be negative
    during transients; the Hill term uses the real continuation.
    """
    x1, y1 = float(state[IX1]), float(state[IY1])
    x2, y2 = float(state[IX2]), float(state[IY2])
    y1d, y2d = float(delayed[IY1]), float(delayed[IY2])
    return np.array([1.0 - p.b1 * x1,
                     x1 - (p.a1 + p.a12 * y2d) * y1,
                     _hill_log(y1d, p.n, math.log(p.a)) - p.b2 * x2,
                     x2 - (p.a2 + p.a21 * y1d) * y2])


def linearize(p, eq):
    """The Jacobians A (of the state at t) and B (at t - tau) at eq, as
    float arrays: reference_mp.jacobians rounded."""
    A, B = (np.array([[float(x.v) for x in row] for row in M])
            for M in reference_mp.jacobians(p, eq))
    return types.SimpleNamespace(A=A, B=B)


def characteristic_residual(lam, tau, cc):
    """Delta(lambda, tau); zero at characteristic roots."""
    return (lam**3 + cc.b * lam**2 + cc.c * lam + cc.d
            + (cc.g * lam + cc.h) * cmath.exp(-2.0 * lam * tau))


def newton_root(cc, tau, lam0):
    """The characteristic root near lam0 at delay tau, by Newton's method."""
    lam = lam0
    for _ in range(60):
        E = cmath.exp(-2.0 * lam * tau)
        step = characteristic_residual(lam, tau, cc) / (
            3 * lam**2 + 2 * cc.b * lam + cc.c + (cc.g - 2.0 * tau * (cc.g * lam + cc.h)) * E)
        lam -= step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


def pairing_quadrature(w_row, v_col, B, tau, rate_psi, rate_phi):
    """The bilinear pairing of w e^(rate_psi s) and v e^(rate_phi theta):
    the boundary term plus the delay integral by composite Simpson on
    10000 intervals."""
    xi = np.linspace(-tau, 0.0, 10001)
    y = (w_row @ B @ v_col) * np.exp(rate_psi * (xi + tau) + rate_phi * xi)
    return w_row @ v_col + (xi[1] - xi[0]) / 3.0 * (
        y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
