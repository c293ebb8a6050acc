"""Hill function, parameter validation, and right-hand-side tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import (DivergenceError, DomainError, ModelParams, PRESETS,
                      find_equilibria, hill_derivs, hill_eval, integrate)
from hopf_dde.model import _hill_log
from hopf_dde.simulation import _hill_log_many

import reference_mp
from reference_model import rhs
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
    with pytest.raises(DomainError, match="a must be positive and finite"):
        ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01,
                    a=math.inf, n=2)
    with pytest.raises(DomainError):
        ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01, a=4.0, n=0)
    # couplings may be exactly zero (decoupled loop)
    ModelParams(a1=0.13, a2=0.13, a12=0.0, a21=0.0, b1=0.8, b2=0.01, a=4.0, n=2)
    # _replace, the path sweep points take, validates too
    assert PRESETS["n2"]._replace(n=3).n == 3
    with pytest.raises(DomainError, match="b1 must lie in"):
        PRESETS["n2"]._replace(b1=1.5)
    with pytest.raises(DomainError, match="n must be an integer"):
        PRESETS["n2"]._replace(n=0)


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


@pytest.mark.parametrize("x", [1e305, 1e-108])
@pytest.mark.parametrize("n", [1, 2])
def test_hill_derivatives_at_the_ends_of_the_float_range(x, n):
    # x**3 overflows at 1e305 and rounds to 0 at 1e-108; the derivatives
    # must stay finite and match the 50-digit reference (at 1e305
    # the true values underflow to 0)
    p = PRESETS["n2"]._replace(n=n)
    want = reference_mp.hill(x, n, p.a)[1:]
    for k, (got, w) in enumerate(zip(hill_derivs(x, p), want), start=1):
        assert math.isfinite(got)
        assert got == pytest.approx(float(w.v), rel=1e-12, abs=1e-300), k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hill_derivatives_where_x_to_the_n_over_a_underflows(n):
    # below x^n/a = 2^-511 its square, and below 1e-308 the value itself,
    # leave the normal range although the derivatives need not: f''' =
    # 6/a^3 at n = 1 read 0 from x = 1e-154 down, and at n = 2, 3 every
    # derivative read 0. Checked against the 50-digit reference (abs
    # 1e-320 where the true value is subnormal).
    p = PRESETS["n4"]._replace(n=n)
    for e in range(-300, -149, 10):
        for m in (1.0, 3.7):
            x = m * 10.0**e
            want = [float(w.v) for w in reference_mp.hill(x, n, p.a)[1:]]
            for k, (got, w) in enumerate(zip(hill_derivs(x, p), want), start=1):
                assert got == pytest.approx(w, rel=1e-13, abs=1e-320), (x, k)


def test_hill_derivatives_beyond_the_float_range_read_inf():
    # at n = 1 and x << a, f'' = -2/a^2 and f''' = 6/a^3 exceed the float
    # range for a = 1e-200: they read -inf and inf, not OverflowError
    p = PRESETS["n4"]._replace(a=1e-200, n=1)
    r1, r2, r3 = hill_derivs(1e-300, p)
    assert r1 == pytest.approx(1e200, rel=1e-12)
    assert (r2, r3) == (-math.inf, math.inf)


def test_hill_derivatives_where_the_hill_value_rounds_to_one():
    # a1 = b1 = b2 = 1e-16 put y10 at 9.0e15, where x^n/a > 1e16 and
    # f(y10) rounds to 1.0; 1 - f = a/(a + x^n) must come from log space,
    # or rho1 = f' reads 0 (true 1.2e-32)
    p = ModelParams(a1=1e-16, a2=1.0, a12=1.0, a21=1.0, b1=1e-16, b2=1e-16,
                    a=1.0, n=1)
    eq = find_equilibria(p)[0]
    assert eq.y10 == pytest.approx(9.0289e15, rel=1e-4)
    assert hill_eval(eq.y10, p) == 1.0
    want = reference_mp.hill(eq.y10, p.n, p.a)[1:]
    for k, (got, w) in enumerate(zip((eq.rho1, eq.rho2, eq.rho3), want), start=1):
        assert abs(got - w.v) <= 1e-14 * abs(w.v), (k, got, w.v)


def test_hill_extension_matches_parity():
    # even n: symmetric; odd n: real odd-power continuation
    assert _hill_log(-2.0, 2, math.log(4.0)) == pytest.approx(0.5, rel=1e-14)
    x, n, a = -1.2, 3, 4.0
    expected = (x**3) / (a + x**3)
    assert _hill_log(x, n, math.log(a)) == pytest.approx(expected, rel=1e-12)


def test_hill_odd_branch_stays_finite_for_huge_exponents():
    # (-100)^163 overflows a float; in log space the term is 1/(1 - e^t)
    # with t = ln a - n ln|x| far below -700
    assert _hill_log(-100.0, 163, math.log(1.0)) == 1.0
    x = -1.01
    assert _hill_log(x, 163, math.log(1.0)) == pytest.approx(x**163 / (1.0 + x**163), rel=1e-12)
    # far inside the pole |x| = a^(1/n) the term underflows to -0.0
    assert math.copysign(1.0, _hill_log(-1e-5, 163, math.log(1.0))) == -1.0
    assert _hill_log(-0.5, 3, math.log(4.0)) == pytest.approx(-0.125 / 3.875, rel=1e-14)


@pytest.mark.parametrize("x, n, a", [(-1.0, 3, 1.0), (-2.0, 1, 2.0)])
def test_hill_odd_branch_pole_is_divergence(x, n, a):
    # x^n = -a makes the denominator vanish
    with pytest.raises(DivergenceError):
        _hill_log(x, n, math.log(a))
    # the same pole at one node of an interval of 64 steps, whose history
    # is positive elsewhere: the interval pass gives the interval back, and
    # the per-step loop's _hill_log reports the pole
    p = PRESETS["n2"]._replace(n=n, a=a)

    def history(ts):
        return np.array([[1.0, x if t == -0.5 else 0.5, 3.0, 20.0]
                         for t in ts.tolist()])

    with pytest.raises(DivergenceError, match="pole"):
        integrate(p, 1.0, history, 2.0, 1.0 / 64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 163, 164])
@pytest.mark.parametrize("a", [4.0, 0.5])
def test_hill_log_many_matches_scalar_bit_for_bit(n, a):
    # numpy's log and exp round differently from the C library's by up to
    # an ulp, and the exponent t = ln a - n ln|x| carries n times log's
    # rounding, so the unit is an ulp of f scaled by f's condition number
    # with respect to the terms of t (n = 163 differs by up to ~900 plain
    # ulp)
    rng = np.random.default_rng(n)
    x = np.concatenate((rng.uniform(-3.0, 3.0, 2000), rng.uniform(0.99, 1.01, 500),
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, 100.0, -100.0,
                         1e10, -1e10, 1e300, -1e300, math.nan]))
    log_x = np.log(np.where(x == 0.0, 1.0, np.abs(x)))
    t = math.log(a) - n * log_x
    # its domain: the rest (zero, negative values, t > 700, nan) is
    # _hill_log's alone
    inside = (x > 0.0) & (t <= 700.0)
    edges = x[~inside].tolist()
    assert len(edges) > 900 and any(v > 0.0 for v in edges)
    for v in edges:
        assert _hill_log_many(np.array([1.0, v]), n, math.log(a)) is None
    x, log_x, t = x[inside], log_x[inside], t[inside]
    want = np.array([_hill_log(v, n, math.log(a)) for v in x.tolist()])
    got = _hill_log_many(x, n, math.log(a))
    cond = 1.0 + (abs(math.log(a)) + n * np.abs(log_x)) * np.abs(1.0 - want)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)) * cond)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # t < -746, where both sides round to 1, exactly
    ones = t < -746.0
    assert np.count_nonzero(ones) >= (0 if n == 1 else 1)
    assert np.array_equal(got[ones], want[ones])


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
