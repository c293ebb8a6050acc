"""Hill function, parameter validation, and right-hand-side tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import (DivergenceError, DomainError, ModelParams, PRESETS,
                      hill_derivs, hill_eval, rhs)
from hopf_dde.model import _hill_extended, _hill_log, _hill_log_many

from reference_values import CASES, HILL_N4_AT_EQ


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(a1=0.0, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01, a=4.0, n=2)
    with pytest.raises(DomainError):
        ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=1.5, b2=0.01, a=4.0, n=2)
    with pytest.raises(DomainError):
        ModelParams(a1=0.13, a2=0.13, a12=-0.1, a21=0.02, b1=0.8, b2=0.01, a=4.0, n=2)
    with pytest.raises(DomainError):
        ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01, a=0.0, n=2)
    with pytest.raises(DomainError):
        ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01, a=4.0, n=0)
    # couplings may be exactly zero (decoupled loop)
    ModelParams(a1=0.13, a2=0.13, a12=0.0, a21=0.0, b1=0.8, b2=0.01, a=4.0, n=2)


def test_hill_simple_values():
    p2 = PRESETS["n2"]
    assert hill_eval(0.0, p2) == 0.0
    # x^2/(4+x^2) at x=2 is exactly 1/2
    assert hill_eval(2.0, p2) == pytest.approx(0.5, rel=1e-15)
    p1 = ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02,
                     b1=0.8, b2=0.01, a=1.0, n=1)
    assert hill_eval(1.0, p1) == pytest.approx(0.5, rel=1e-15)


def test_hill_rational_oracle():
    # frozen from exact Fraction arithmetic
    p4 = PRESETS["n4"]
    assert hill_eval(0.82091152, p4) == pytest.approx(HILL_N4_AT_EQ, rel=1e-14)


def test_hill_domain_errors():
    p = PRESETS["n2"]
    with pytest.raises(DomainError):
        hill_eval(-0.5, p)
    with pytest.raises(DomainError):
        hill_derivs(0.0, p)
    with pytest.raises(DomainError):
        hill_derivs(-1.0, p)


def test_hill_huge_exponent_regular():
    p = PRESETS["n164"]
    assert hill_eval(0.5, p) == pytest.approx(0.0, abs=1e-30)
    assert hill_eval(2.0, p) == pytest.approx(1.0, rel=1e-12)
    lo = hill_eval(0.99, p)
    hi = hill_eval(1.02, p)
    assert 0.0 < lo < hi < 1.0
    for r in hill_derivs(1.0085, p):
        assert math.isfinite(r)


@settings(max_examples=60, derandomize=True)
@given(x1=st.floats(0.01, 50.0), x2=st.floats(0.01, 50.0),
       n=st.integers(1, 12), a=st.floats(0.1, 20.0))
def test_hill_monotone_and_bounded(x1, x2, n, a):
    p = ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02,
                    b1=0.8, b2=0.01, a=a, n=n)
    lo, hi = sorted((x1, x2))
    f_lo, f_hi = hill_eval(lo, p), hill_eval(hi, p)
    # f < 1 analytically; the upper end can round to 1.0 in double
    assert 0.0 <= f_lo <= f_hi <= 1.0


def test_hill_first_derivative_analytic_value():
    # f'(2) with n=2, a=4: 2*2*4/(4+4)^2 = 1/4; finite differences agree
    p = PRESETS["n2"]
    r1, _, _ = hill_derivs(2.0, p)
    assert r1 == pytest.approx(0.25, rel=1e-13)
    h = 1e-6
    fd = (hill_eval(2.0 + h, p) - hill_eval(2.0 - h, p)) / (2.0 * h)
    assert r1 == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("case", ["n2", "n4", "n163"])
def test_hill_derivatives_match_finite_differences(case):
    ref = CASES[case]
    p = PRESETS[case]
    x = ref["y10"]
    r1, r2, r3 = hill_derivs(x, p)
    # scale-aware central differences on f and f'
    h = 1e-6 * max(1.0, abs(x))
    fd1 = (hill_eval(x + h, p) - hill_eval(x - h, p)) / (2.0 * h)
    assert r1 == pytest.approx(fd1, rel=1e-7)
    d1 = lambda t: hill_derivs(t, p)[0]
    fd2 = (d1(x + h) - d1(x - h)) / (2.0 * h)
    assert r2 == pytest.approx(fd2, rel=1e-6)
    d2 = lambda t: hill_derivs(t, p)[1]
    fd3 = (d2(x + h) - d2(x - h)) / (2.0 * h)
    assert r3 == pytest.approx(fd3, rel=1e-5)


@pytest.mark.parametrize("case", list(CASES))
def test_hill_derivatives_frozen(case):
    ref = CASES[case]
    r1, r2, r3 = hill_derivs(ref["y10"], PRESETS[case])
    assert r1 == pytest.approx(ref["rho1"], rel=1e-12)
    assert r2 == pytest.approx(ref["rho2"], rel=1e-12)
    assert r3 == pytest.approx(ref["rho3"], rel=1e-12)


def test_hill_extension_matches_parity():
    # even n: symmetric; odd n: real odd-power continuation
    assert _hill_extended(-2.0, 2, 4.0) == pytest.approx(0.5, rel=1e-14)
    x, n, a = -1.2, 3, 4.0
    expected = (x**3) / (a + x**3)
    assert _hill_extended(x, n, a) == pytest.approx(expected, rel=1e-12)


def test_hill_odd_branch_stays_finite_for_huge_exponents():
    # (-100)^163 overflows a float; in log space the term is 1/(1 - e^t)
    # with t = ln a - n ln|x| far below -700
    assert _hill_extended(-100.0, 163, 1.0) == 1.0
    x = -1.01
    assert _hill_extended(x, 163, 1.0) == pytest.approx(x**163 / (1.0 + x**163), rel=1e-12)
    # far inside the pole |x| = a^(1/n) the term underflows to -0.0
    assert math.copysign(1.0, _hill_extended(-1e-5, 163, 1.0)) == -1.0
    assert _hill_extended(-0.5, 3, 4.0) == pytest.approx(-0.125 / 3.875, rel=1e-14)


@pytest.mark.parametrize("x, n, a", [(-1.0, 3, 1.0), (-2.0, 1, 2.0)])
def test_hill_odd_branch_pole_is_divergence(x, n, a):
    # x^n = -a makes the denominator vanish
    with pytest.raises(DivergenceError):
        _hill_extended(x, n, a)
    with pytest.raises(DivergenceError):
        _hill_log_many(np.array([0.5, x]), n, math.log(a))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 163, 164])
@pytest.mark.parametrize("a", [4.0, 0.5])
def test_hill_log_many_matches_scalar_bit_for_bit(n, a):
    rng = np.random.default_rng(n)
    x = np.concatenate((rng.uniform(-3.0, 3.0, 2000), rng.uniform(0.99, 1.01, 500),
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, 100.0, -100.0,
                         1e10, -1e10, 1e300, -1e300]))
    if n % 2:
        x = x[np.abs(np.abs(x) - a ** (1.0 / n)) > 1e-9]  # keep off the pole
    want = np.array([_hill_log(v, n, math.log(a)) for v in x.tolist()])
    got = _hill_log_many(x, n, math.log(a))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_rhs_hand_computed():
    # duplicate implementation written out term by term
    p = PRESETS["n2"]
    state = np.array([1.1, 0.6, 10.0, 70.0])
    delayed = np.array([0.9, 0.8, 9.0, 60.0])
    f = hill_eval(0.8, p)
    expect = np.array([
        1.0 - 0.8 * 1.1,
        1.1 - (0.13 + 0.02 * 60.0) * 0.6,
        f - 0.01 * 10.0,
        10.0 - (0.13 + 0.02 * 0.8) * 70.0,
    ])
    got = rhs(state, delayed, p)
    np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_rhs_vanishes_at_equilibrium():
    ref = CASES["n2"]
    p = PRESETS["n2"]
    state = np.array([1.25, ref["y10"], ref["x20"], ref["y20"]])
    np.testing.assert_allclose(rhs(state, state, p), np.zeros(4), atol=1e-12)
