"""Reference builders of the model's right-hand side and linearization.

The package computes on the structure of these objects (the
characteristic coefficients, the E-vector entries, the integrator's
inline stages) and never builds them; the tests build them here, term by
term from the model equations, and compare the package against them.
"""

import cmath
import dataclasses
import math

import numpy as np

from hopf_dde.model import IX1, IX2, IY1, IY2, _hill_log


@dataclasses.dataclass(frozen=True)
class LinearPair:
    """Instantaneous and delayed Jacobians of the linearized system."""

    A: np.ndarray
    B: np.ndarray


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
    """The Jacobians A (of the state at t) and B (at t - tau) at eq."""
    al = p.a1 + p.a12 * eq.y20
    be = p.a2 + p.a21 * eq.y10
    A = np.array([
        [-p.b1, 0.0, 0.0, 0.0],
        [1.0, -al, 0.0, 0.0],
        [0.0, 0.0, -p.b2, 0.0],
        [0.0, 0.0, 1.0, -be],
    ])
    B = np.zeros((4, 4))
    B[1, 3] = -p.a12 * eq.y10
    B[2, 1] = eq.rho1
    B[3, 1] = -p.a21 * eq.y20
    return LinearPair(A=A, B=B)


def characteristic_residual(lam, tau, cc):
    """Delta(lambda, tau); zero at characteristic roots."""
    return (lam**3 + cc.b * lam**2 + cc.c * lam + cc.d
            + (cc.g * lam + cc.h) * cmath.exp(-2.0 * lam * tau))
