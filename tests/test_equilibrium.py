"""Equilibrium root-finding tests."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import (DomainError, ModelParams, PRESETS, build_equilibrium,
                      find_equilibria, hill_eval)
from hopf_dde import equilibrium
from hopf_dde.config import SweepSpec
from hopf_dde.equilibrium import _bisect, _solve_y10
from hopf_dde.model import _hill_log
from hopf_dde.pipeline import sweep_values

import reference_mp
from reference_model import rhs
from reference_values import CASES


def _params(**kw):
    base = dict(a1=0.13, a2=0.13, a12=0.02, a21=0.02, b1=0.8, b2=0.01, a=4.0, n=2)
    base.update(kw)
    return ModelParams(**base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(bad):
    # a non-finite protein level must not pass as a root
    p = PRESETS["n2"]
    build_equilibrium(p, CASES["n2"]["y10"])
    with pytest.raises(DomainError):
        build_equilibrium(p, bad)


def _exact_sign(p, y):
    # sign of the equilibrium polynomial in exact rational arithmetic
    y = Fraction(y)
    a1, a2, a12, a21, b1, b2, a = map(Fraction, (p.a1, p.a2, p.a12, p.a21,
                                                 p.b1, p.b2, p.a))
    hill = (a2 + a21 * y) * (a + y**p.n)
    v = b1 * b2 * a1 * y * hill + b1 * a12 * y**(p.n + 1) - b2 * hill
    return (v > 0) - (v < 0)


def _steps(y, k):
    # the float k representable steps away from y (k < 0: below)
    for _ in range(abs(k)):
        y = math.nextafter(y, math.copysign(math.inf, k))
    return y


def test_solver_matches_per_interval_reference():
    rng = np.random.default_rng(11)
    sets = [PRESETS["n2"]._replace(n=n)
            for n in (1, 2, 3, 4, 5, 7, 10, 16, 27, 45, 80, 120, 163, 164, 169)]
    for _ in range(24):
        sets.append(ModelParams(
            a1=rng.uniform(0.02, 1.0), a2=rng.uniform(0.02, 1.0),
            a12=rng.uniform(0.0, 1.0), a21=rng.uniform(0.0, 1.0),
            b1=rng.uniform(0.02, 1.0), b2=rng.uniform(0.002, 1.0),
            a=rng.uniform(0.2, 20.0), n=int(rng.integers(1, 9))))
    for p in sets:
        eqs = find_equilibria(p)
        assert len(eqs) == 1
        y = eqs[0].y10
        # the exact root lies within 4 ulp of the solver's
        assert _exact_sign(p, _steps(y, -4)) <= 0 <= _exact_sign(p, _steps(y, 4))
        assert abs(reference_mp.y1_balance_root(p)[0] - y) <= 8 * math.ulp(y)


@pytest.mark.parametrize("case", list(CASES))
def test_preset_single_root_frozen(case):
    ref = CASES[case]
    eqs = find_equilibria(PRESETS[case])
    assert len(eqs) == 1
    assert eqs[0].y10 == pytest.approx(ref["y10"], rel=1e-10)


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
    p = PRESETS["n2"]
    base = find_equilibria(p)
    assert len(base) == 1
    names = ("a1", "a2", "a12", "a21", "b1", "b2", "a")
    rng = np.random.default_rng(7)
    for _ in range(5):
        wiggle = 1.0 + 1e-12 * rng.standard_normal(len(names))
        q = p._replace(**{k: getattr(p, k) * w
                          for k, w in zip(names, wiggle)})
        eqs = find_equilibria(q)
        assert len(eqs) == len(base)
        assert eqs[0].y10 == pytest.approx(base[0].y10, rel=1e-10)


@pytest.mark.parametrize("case", list(CASES))
def test_root_lies_in_a_priori_bracket(case):
    # 1/(b1 (a1 + a12/(a2 b2))) <= y10 <= 1/(a1 b1), where g changes sign
    p = PRESETS[case]
    y10 = find_equilibria(p)[0].y10
    lo = 1.0 / (p.b1 * (p.a1 + p.a12 / (p.a2 * p.b2)))
    hi = 1.0 / (p.a1 * p.b1)
    assert lo < y10 < hi
    assert _exact_sign(p, lo) < 0 < _exact_sign(p, hi)


@pytest.mark.parametrize("message, model", [
    # y10 near 1/(a1 b1) = 1e310
    ("above", dict(a1=1e-300, b1=1e-10)),
    # a12 = 0: y10 = 1/(a1 b1) = 1e310 is also the bracket's lower end
    ("above", dict(a1=1e-300, b1=1e-10, a12=0.0)),
    # a21 = 0 and n = 1: y10^2 = a a2 b2 / a12 = 1e-900
    ("below", dict(a2=1e-300, b2=1e-300, a21=0.0, a=1e-300, a12=1.0, n=1)),
    # x10 = 1/b1 itself
    ("1/b1 overflows", dict(b1=1e-320)),
], ids=["above", "lower end above", "below", "x10"])
def test_root_outside_float_range_raises(message, model):
    with pytest.raises(DomainError, match=message):
        find_equilibria(_params(**model))


def test_y20_when_b2_times_a2_underflows():
    # b2*a2 = 1e-340 rounds to 0; y20 = x20/a2 is still about 8e70
    p = _params(a2=1e-170, b2=1e-170, a21=0.0, a=1e200, n=1)
    eq = find_equilibria(p)[0]
    assert eq.y20 == pytest.approx(eq.x20 / p.a2, rel=1e-15)
    assert eq.y10 * (p.a1 + p.a12 * eq.y20) == pytest.approx(eq.x10, rel=1e-12)


def test_load_whose_hill_product_underflows():
    # a12*f(y10) is about 4.5e-321, subnormal, while the load a12 f y/(b2
    # (a2 + a21 y)) is about 1.1e21; formed from the subnormal product, the
    # bisection stopped 1e-5 (relative) away and the y1 balance rejected it
    p = ModelParams(a1=9.339e-193, a2=1.057e-230, a12=2.243e-277, a21=4.613e-139,
                    b1=8.847e-22, b2=8.615e-204, a=2.025e222, n=35)
    eq = find_equilibria(p)[0]
    supply = (p.a1 + p.a12 * eq.y20) * eq.y10
    assert abs(eq.x10 - supply) <= 1e-10 * (eq.x10 + supply)
    assert eq.y10 == pytest.approx(float(reference_mp.y1_balance_root(p)[0]), rel=1e-13)


def test_x20_when_the_hill_value_underflows():
    # y10 is 1e-50, so f(y10) = 1e-350 underflows to 0, while x20 = f/b2 =
    # 1e-150 and y20 = 1e50 are normal floats: x20 and y20 come from f as a
    # mantissa and a binary exponent, or the y1 balance rejects the root
    p = ModelParams(a1=1.0, a2=1e-200, a12=1.0, a21=0.0, b1=1.0, b2=1e-200,
                    a=1e300, n=1)
    eq = find_equilibria(p)[0]
    assert eq.y10 == pytest.approx(float(reference_mp.y1_balance_root(p)[0]), rel=1e-13)
    ref = reference_mp.equilibrium(p, eq.y10)
    assert eq.x20 == pytest.approx(float(ref.x20.v), rel=1e-13)
    assert eq.y20 == pytest.approx(float(ref.y20.v), rel=1e-13)
    supply = (p.a1 + p.a12 * eq.y20) * eq.y10
    assert abs(eq.x10 - supply) <= 1e-10 * (eq.x10 + supply)


def test_equilibrium_component_overflow_raises():
    # decoupled, so y10 = 1/(a1 b1) is fine, but x20 = f(y10)/b2 overflows
    with pytest.raises(DomainError, match="outside the float range"):
        find_equilibria(_params(a12=0.0, b2=1e-320))


def test_decoupled_variant_has_closed_form_root():
    # a12 = a21 = 0 factors the polynomial; root at 1/(a1*b1)
    p = _params(a12=0.0, a21=0.0)
    eqs = find_equilibria(p)
    assert len(eqs) == 1
    assert eqs[0].y10 == pytest.approx(1.0 / (p.a1 * p.b1), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a1=st.floats(0.05, 1.0), a2=st.floats(0.05, 1.0),
       a12=st.floats(0.0, 1.0), a21=st.floats(0.0, 1.0),
       b1=st.floats(0.1, 1.0), b2=st.floats(0.005, 0.5),
       a=st.floats(0.5, 10.0), n=st.integers(1, 200))
def test_random_params_yield_valid_equilibria(a1, a2, a12, a21, b1, b2, a, n):
    p = ModelParams(a1=a1, a2=a2, a12=a12, a21=a21, b1=b1, b2=b2, a=a, n=n)
    eqs = find_equilibria(p)
    assert len(eqs) == 1
    for eq in eqs:
        st8 = eq.state()
        resid = rhs(st8, st8, p)
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, float(np.max(np.abs(st8))))


def _balance_test(p):
    # _solve_y10's sign test a1 y + load < 1/b1, where a12 f(y) is normal
    x10, log_a = 1.0 / p.b1, math.log(p.a)

    def below(y):
        q = p.a12 * _hill_log(y, p.n, log_a)
        assert q >= sys.float_info.min
        return p.a1 * y + q * (y / (p.a2 + p.a21 * y)) / p.b2 < x10
    return below


def _bisected_y10(p):
    # the solve without Newton steps: the test bisected on the whole
    # widened a-priori bracket
    x10 = 1.0 / p.b1
    lo = 0.5 * x10 / (p.a1 + p.a12 / p.a2 / p.b2)
    return _bisect(_balance_test(p), lo, 2.0 * x10 / p.a1)


def _sampler(count):
    # the ROADMAP's random sets: rates log-uniform on [1e-3, 1], a on
    # [1e-2, 1e2]
    rng = random.Random(1)
    for _ in range(count):
        rates = [10.0 ** rng.uniform(-3.0, 0.0) for _ in range(6)]
        yield ModelParams(*rates, a=10.0 ** rng.uniform(-2.0, 2.0),
                          n=rng.choice((1, 2, 3, 4, 6, 8, 12, 20)))


def test_newton_root_is_a_flip_of_the_balance_test():
    # where the rounded test is not monotone in floats the Newton root can
    # be another flip than the whole bracket's bisection; it is a flip, and
    # it passes the y1 balance
    for p in _sampler(500):
        below = _balance_test(p)
        y10 = _solve_y10(p)
        assert below(math.nextafter(y10, 0.0)) and not below(y10), p
        build_equilibrium(p, y10)


def test_newton_root_is_the_bisected_float_on_the_frozen_inputs():
    # perfbench's frozen outputs: n = 1..169 at the preset rates, and the
    # seed-0 a12 sweep at n = 4
    sets = [PRESETS["n4"]._replace(n=n) for n in range(1, 170)]
    grid = SweepSpec(param="a12", start=0.01, stop=0.01 + 0.03, count=8)
    sets += [PRESETS["n4"]._replace(a12=v) for v in sweep_values(grid)]
    for p in sets:
        assert _solve_y10(p) == _bisected_y10(p), p


def test_newton_solve_evaluates_the_hill_term_at_most_12_times(monkeypatch):
    # perfbench's sweep_n grid, n = 2..158; bisecting the bracket takes 58
    calls = []
    hill = equilibrium._hill_log
    monkeypatch.setattr(equilibrium, "_hill_log",
                        lambda *a: calls.append(a) or hill(*a))
    ns = [n for first in range(2, 131, 32) for n in sweep_values(
        SweepSpec(param="n", start=first, stop=first + 28, count=8))]
    assert len(ns) == 40
    for n in ns:
        calls.clear()
        _solve_y10(PRESETS["n4"]._replace(n=n))
        assert 1 <= len(calls) <= 12, n


def test_saturated_hill_term_solve_takes_14_hill_evaluations(monkeypatch):
    # f(y10) is about 1, far above the f = 1/2 start at y = 0.93: Newton
    # creeps up the saturating Hill term (twice the step is taken), then
    # lands on a run of floats where the rounded value is 0 (probes 1, 2,
    # 4, ... floats away bracket its end). One-float steps and no doubling
    # took 17 evaluations and used up _NEWTON_STEPS
    calls = []
    hill = equilibrium._hill_log
    monkeypatch.setattr(equilibrium, "_hill_log",
                        lambda *a: calls.append(a) or hill(*a))
    p = ModelParams(a1=0.0045, a2=0.47, a12=0.045, a21=0.51, b1=0.36,
                    b2=0.032, a=0.25, n=20)
    y10 = _solve_y10(p)
    assert len(calls) == 14
    assert y10 == _bisected_y10(p)


def test_wide_rounding_band_bisects_the_whole_bracket(monkeypatch):
    # at a1 = b1 = b2 = 1e-16 the test flips several times within 10 % of
    # y10 = 9.03e15; Newton's flip is not the whole bracket's, and the
    # band's width sends the solve to the whole bracket
    p = ModelParams(a1=1e-16, a2=1.0, a12=1.0, a21=1.0, b1=1e-16, b2=1e-16,
                    a=1.0, n=1)
    bisected = _bisected_y10(p)
    assert _solve_y10(p) == bisected
    monkeypatch.setattr(equilibrium, "_BAND", math.inf)
    newton = _solve_y10(p)
    assert newton != bisected
    assert newton == pytest.approx(bisected, rel=0.1)
