"""Equilibrium polynomial and root-finding tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import (ConvergenceError, DomainError, ModelParams, PRESETS,
                      build_equilibrium, equilibrium_poly_coeffs,
                      find_equilibria, find_positive_roots, hill_eval, rhs)
from hopf_dde.equilibrium import (_poly_deriv, _poly_eval, _poly_eval_scaled,
                                  _poly_eval_scaled_grid, cauchy_root_bound)

from reference_values import CASES


def _params(**kw):
    base = dict(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01, a=4.0, n=2)
    base.update(kw)
    return ModelParams(**base)


def test_coeff_structure():
    p = PRESETS["n2"]
    co = equilibrium_poly_coeffs(p)
    assert len(co) == p.n + 3
    # constant term -b2*a*a2, leading term a1*a21*b1*b2
    assert co[0] == pytest.approx(-p.b2 * p.a * p.a2, rel=1e-15)
    assert co[-1] == pytest.approx(p.a1 * p.a21 * p.b1 * p.b2, rel=1e-15)


def test_coeff_overlap_accumulates():
    # n=2 puts the Hill block on degrees 2..4, overlapping degree 2
    p = _params(n=2)
    co = equilibrium_poly_coeffs(p)
    expected_deg2 = p.b1 * p.b2 * p.a1 * p.a * p.a21 - p.b2 * p.a2
    assert co[2] == pytest.approx(expected_deg2, rel=1e-14)


def test_planted_cubic_roots():
    # (x - 1/2)(x - 2)(x + 1) = x^3 - 3/2 x^2 - 3/2 x + 1
    coeffs = np.array([1.0, -1.5, -1.5, 1.0])
    roots = find_positive_roots(coeffs)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.5, rel=1e-12)
    assert roots[1] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(bad):
    # a NaN scan value would otherwise come back as a "positive root"
    with pytest.raises(DomainError):
        find_positive_roots(np.array([bad, 1.0]))
    with pytest.raises(DomainError):
        find_positive_roots(np.array([-1.0, 0.0, bad]))


_PLANTED = np.array([1.0, -1.5, -1.5, 1.0])


@pytest.mark.parametrize("case", list(CASES))
def test_grid_eval_matches_scalar_horner_bitwise(case):
    coeffs = np.trim_zeros(equilibrium_poly_coeffs(PRESETS[case]), "b")
    xs = np.concatenate([np.geomspace(1e-8, 1.0, 300),
                         np.nextafter(1.0, [0.0, 2.0]),
                         np.linspace(1.0, cauchy_root_bound(coeffs), 300)])
    assert np.count_nonzero(xs == 1.0) == 2
    want = np.array([_poly_eval_scaled(coeffs, x) for x in xs])
    assert np.array_equal(_poly_eval_scaled_grid(coeffs, xs), want)


def _per_interval_roots(coeffs, grid=4096):
    # the scan as a scalar loop over every interval, kept as a reference
    coeffs = np.asarray(coeffs, dtype=float)
    trimmed = np.trim_zeros(coeffs, "b")
    if len(trimmed) < 2:
        return []
    x_max = cauchy_root_bound(trimmed)
    xs = np.unique(np.concatenate([
        np.linspace(x_max / grid, x_max, grid),
        np.geomspace(1e-8, x_max, grid // 2),
    ]))
    vals = np.array([_poly_eval_scaled(trimmed, x) for x in xs])
    roots = []
    deriv = _poly_deriv(trimmed)
    for i in range(len(xs) - 1):
        a, b, fa, fb = xs[i], xs[i + 1], vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = _poly_eval_scaled(trimmed, m)
            if fm == 0.0 or (b - a) < 1e-16 * max(1.0, m):
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        root = 0.5 * (a + b)
        if root < 1e3:
            for _ in range(3):
                dr = _poly_eval(deriv, root)
                if dr == 0.0:
                    break
                step = _poly_eval(trimmed, root) / dr
                if not np.isfinite(step):
                    break
                root -= step
        if root > 0.0 and not any(abs(root - r) <= 1e-12 * max(1.0, abs(r))
                                  for r in roots):
            roots.append(float(root))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)


def test_vectorized_scan_matches_per_interval_reference():
    polys = [_PLANTED, np.array([-1.0, 0.0, 1.0]), np.array([0.0, -2.0, 0.0, 1.0])]
    polys += [equilibrium_poly_coeffs(p) for p in PRESETS.values()]
    polys += [equilibrium_poly_coeffs(dataclasses.replace(PRESETS["n2"], n=n))
              for n in range(1, 41)]
    for coeffs in polys:
        got = find_positive_roots(coeffs)
        assert got == _per_interval_roots(coeffs)
        assert all(type(r) is float for r in got)


def test_cauchy_bound_contains_planted_roots():
    coeffs = np.array([1.0, -1.5, -1.5, 1.0])
    assert cauchy_root_bound(coeffs) >= 2.0


@pytest.mark.parametrize("case", list(CASES))
def test_preset_single_root_frozen(case):
    ref = CASES[case]
    roots = find_positive_roots(equilibrium_poly_coeffs(PRESETS[case]))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(ref["y10"], rel=1e-10)


@pytest.mark.parametrize("case", list(CASES))
def test_build_equilibrium_frozen(case):
    ref = CASES[case]
    p = PRESETS[case]
    eq = build_equilibrium(p, ref["y10"])
    assert eq.x10 == pytest.approx(1.25, rel=1e-14)
    assert eq.x20 == pytest.approx(ref["x20"], rel=1e-10)
    assert eq.y20 == pytest.approx(ref["y20"], rel=1e-10)
    # definition checks: x20 balances the Hill production, y20 balances x2
    f0 = hill_eval(eq.y10, p)
    assert eq.x20 == pytest.approx(f0 / p.b2, rel=1e-14)
    assert eq.y20 == pytest.approx(eq.x20 / (p.a2 + p.a21 * eq.y10), rel=1e-14)


@pytest.mark.parametrize("case", list(CASES))
def test_rhs_vanishes_at_found_equilibria(case):
    p = PRESETS[case]
    for eq in find_equilibria(p):
        st8 = eq.state()
        np.testing.assert_allclose(rhs(st8, st8, p), np.zeros(4), atol=1e-12)


def test_build_equilibrium_rejects_non_roots():
    p = PRESETS["n2"]
    with pytest.raises(DomainError):
        build_equilibrium(p, 0.9)
    with pytest.raises(DomainError):
        build_equilibrium(p, -1.0)


def test_root_count_stable_under_small_perturbation():
    coeffs = equilibrium_poly_coeffs(PRESETS["n2"])
    base = find_positive_roots(coeffs)
    rng = np.random.default_rng(7)
    for _ in range(5):
        wiggle = coeffs * (1.0 + 1e-12 * rng.standard_normal(len(coeffs)))
        assert len(find_positive_roots(wiggle)) == len(base)


def test_brute_force_scan_agrees():
    # independent oracle: dense sign scan with one million samples
    p = PRESETS["n4"]
    coeffs = equilibrium_poly_coeffs(p)
    roots = find_positive_roots(coeffs)
    xs = np.linspace(1e-6, 3.0, 1_000_000)
    vals = np.array([_poly_eval(coeffs, x) for x in xs[::1000]])
    # coarse check on the subsample grid: one sign change
    signs = np.sign(vals)
    changes = np.count_nonzero(signs[:-1] * signs[1:] < 0)
    assert changes == len(roots) == 1
    # dense scan pins the root bracket
    dense = xs[np.searchsorted(xs, roots[0])]
    assert abs(dense - roots[0]) < 1e-5


def test_decoupled_variant_has_closed_form_root():
    # a12 = a21 = 0 factors the polynomial; root at 1/(a1*b1)
    p = _params(a12=0.0, a21=0.0)
    roots = find_positive_roots(equilibrium_poly_coeffs(p))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0 / (p.a1 * p.b1), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a1=st.floats(0.05, 1.0), a2=st.floats(0.05, 1.0),
       a12=st.floats(0.001, 0.1), a21=st.floats(0.001, 0.1),
       b1=st.floats(0.1, 1.0), b2=st.floats(0.005, 0.5),
       a=st.floats(0.5, 10.0), n=st.integers(1, 8))
def test_random_params_yield_valid_equilibria(a1, a2, a12, a21, b1, b2, a, n):
    p = ModelParams(a1=a1, a2=a2, a12=a12, a21=a21, b1=b1, b2=b2, a=a, n=n)
    eqs = find_equilibria(p)
    assert len(eqs) >= 1
    for eq in eqs:
        st8 = eq.state()
        resid = rhs(st8, st8, p)
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, float(np.max(np.abs(st8))))
