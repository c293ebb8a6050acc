"""Positive equilibria of the delayed feedback model.

At an equilibrium, x1 = 1/b1 and the remaining components are algebraic
functions of the protein level y1 = y10, which must satisfy a polynomial
of degree n + 2 obtained by clearing the Hill denominator:

    b1*b2*a1*y*(a2 + a21*y)*(a + y^n) + b1*a12*y^(n+1)
        - b2*(a2 + a21*y)*(a + y^n) = 0

Positive real roots of this polynomial are the biologically meaningful
equilibria. Root finding is a bracketing sign scan over (0, x_max] with a
Cauchy upper bound: one vectorized Horner pass evaluates the polynomial on
the whole scan grid, then bisection and a Newton polish run on the few
brackets where its sign changes. The grid pass does the same separately
rounded multiplies and adds as the scalar Horner, so its values, and the
roots, are the same to the bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, hill_derivs, hill_eval

# residual thresholds, relative to the largest coefficient magnitude
_REFINE_TOL = 1e-12
_ACCEPT_TOL = 1e-10


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
    degree-160+ polynomials can be scanned far beyond x = 1 safely.
    """
    if x <= 1.0:
        return _poly_eval(coeffs, x)
    u = 1.0 / x
    acc = 0.0
    for c in coeffs:
        acc = acc * u + c
    return acc


def _poly_eval_scaled_grid(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """_poly_eval_scaled at every point of xs, the same bits, in one pass."""
    xs = np.asarray(xs, dtype=float)
    low = xs <= 1.0
    x, u = xs[low], 1.0 / xs[~low]
    cs = np.asarray(coeffs, dtype=float).tolist()
    acc_x, acc_u = np.zeros_like(x), np.zeros_like(u)
    for c in reversed(cs):
        acc_x = acc_x * x + c
    for c in cs:
        acc_u = acc_u * u + c
    vals = np.empty_like(xs)
    vals[low], vals[~low] = acc_x, acc_u
    return vals


def _poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    k = np.arange(1, len(coeffs))
    return coeffs[1:] * k


def cauchy_root_bound(coeffs: np.ndarray) -> float:
    """Upper bound 1 + sum|c_i| / |lead| on root magnitudes."""
    trimmed = np.trim_zeros(coeffs, "b")
    if len(trimmed) < 2:
        raise DomainError("polynomial is constant; no root bound")
    lead = abs(trimmed[-1])
    return 1.0 + float(np.sum(np.abs(trimmed[:-1]))) / lead


def find_positive_roots(coeffs: np.ndarray, grid: int = 4096) -> list[float]:
    """All positive real roots found by sign scan + bisection + Newton.

    The scan grid unions a uniform mesh on (0, x_max] with a log mesh
    reaching down to 1e-8, so roots close to zero are not skipped. Roots
    closer together than the mesh cannot be separated; the model's
    equilibrium polynomials have well-separated roots in practice. Each
    root is refined until the scaled residual drops below
    1e-12 * max|coefficient|.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("polynomial coefficients must be finite")
    trimmed = np.trim_zeros(coeffs, "b")
    if len(trimmed) < 2:
        return []
    x_max = cauchy_root_bound(trimmed)
    scale = float(np.max(np.abs(trimmed)))
    xs = np.unique(np.concatenate([
        np.linspace(x_max / grid, x_max, grid),
        np.geomspace(1e-8, x_max, grid // 2),
    ]))
    vals = _poly_eval_scaled_grid(trimmed, xs)
    # a zero at the left end, or a sign change (NaN products included)
    brackets = np.flatnonzero((vals[:-1] == 0.0)
                              | ~(vals[:-1] * vals[1:] >= 0.0))

    # Python floats: the same bits as numpy scalars, faster per Horner
    cs = trimmed.tolist()
    deriv = _poly_deriv(trimmed).tolist()
    roots: list[float] = []
    for i in brackets.tolist():
        a, b = float(xs[i]), float(xs[i + 1])
        fa = float(vals[i])
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = _poly_eval_scaled(cs, m)
            if fm == 0.0 or (b - a) < 1e-16 * max(1.0, m):
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        root = 0.5 * (a + b)
        # Newton polish in direct space; safe here, the root is bracketed
        # tightly and magnitudes stay modest
        if root < 1e3:
            for _ in range(3):
                fr = _poly_eval(cs, root)
                dr = _poly_eval(deriv, root)
                if dr == 0.0:
                    break
                step = fr / dr
                if not math.isfinite(step):
                    break
                root -= step
        if root <= 0.0:
            continue
        resid = abs(_poly_eval_scaled(cs, root))
        if resid > _REFINE_TOL * scale:
            raise ConvergenceError(
                f"root refinement stalled at x={root!r} "
                f"(residual {resid:.3e})")
        if not any(abs(root - r) <= 1e-12 * max(1.0, abs(r)) for r in roots):
            roots.append(root)
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)


def build_equilibrium(p: ModelParams, y10: float) -> Equilibrium:
    """Assemble the full equilibrium from a validated protein level y10."""
    if y10 <= 0.0:
        raise DomainError(f"equilibrium protein level must be positive, got {y10!r}")
    coeffs = equilibrium_poly_coeffs(p)
    scale = float(np.max(np.abs(coeffs)))
    if abs(_poly_eval_scaled(np.trim_zeros(coeffs, "b"), y10)) > _ACCEPT_TOL * scale:
        raise DomainError(
            f"y10={y10!r} does not satisfy the equilibrium polynomial "
            "(scaled residual above tolerance)")
    f0 = hill_eval(y10, p)
    r1, r2, r3 = hill_derivs(y10, p)
    return Equilibrium(
        x10=1.0 / p.b1,
        y10=float(y10),
        x20=f0 / p.b2,
        y20=f0 / (p.b2 * (p.a2 + p.a21 * y10)),
        rho1=r1, rho2=r2, rho3=r3,
    )


def find_equilibria(p: ModelParams) -> list[Equilibrium]:
    """All positive equilibria, ascending in y10."""
    return [build_equilibrium(p, r)
            for r in find_positive_roots(equilibrium_poly_coeffs(p))]
