"""Linearization, characteristic coefficients, crossings, transversality."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import (AnalysisConfig, DomainError, ModelParams, PRESETS,
                      analyze_params, build_equilibrium,
                      char_coeffs, classify_stability,
                      compute_eigenpair, critical_delays, find_equilibria,
                      first_hopf, g_quadratic, hopf_candidates,
                      routh_hurwitz_stable,
                      solve_E_vectors, transversality,
                      transversality_closed_form)
from hopf_dde import stability
from hopf_dde.config import SimSpec, SweepSpec
from hopf_dde.equilibrium import _bisect
from hopf_dde.pipeline import sweep_values
from hopf_dde.stability import CharCoeffs, _cubic_positive_root

import reference_mp
from reference_model import characteristic_residual, linearize, newton_root, rhs
from reference_values import CASES


def _eq(case):
    return build_equilibrium(PRESETS[case], CASES[case]["y10"])


def _cc(case):
    return char_coeffs(PRESETS[case], _eq(case))


def test_linearize_structure():
    p = PRESETS["n2"]
    eq = _eq("n2")
    lin = linearize(p, eq)
    A_nonzero = {(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)}
    B_nonzero = {(1, 3), (2, 1), (3, 1)}
    assert set(zip(*np.nonzero(lin.A))) == A_nonzero
    assert set(zip(*np.nonzero(lin.B))) == B_nonzero
    assert lin.A[1, 1] == pytest.approx(-1.72939250, rel=1e-6)
    assert lin.B[1, 3] == pytest.approx(-p.a12 * eq.y10, rel=1e-14)
    assert lin.B[2, 1] == pytest.approx(eq.rho1, rel=1e-14)
    assert lin.B[3, 1] == pytest.approx(-p.a21 * eq.y20, rel=1e-14)


def test_linearize_matches_finite_difference_jacobians():
    p = PRESETS["n4"]
    eq = _eq("n4")
    lin = linearize(p, eq)
    s0 = np.asarray(eq.state())
    h = 1e-7
    J_inst = np.zeros((4, 4))
    J_del = np.zeros((4, 4))
    for j in range(4):
        dv = np.zeros(4)
        dv[j] = h
        J_inst[:, j] = (rhs(s0 + dv, s0, p) - rhs(s0 - dv, s0, p)) / (2.0 * h)
        J_del[:, j] = (rhs(s0, s0 + dv, p) - rhs(s0, s0 - dv, p)) / (2.0 * h)
    np.testing.assert_allclose(J_inst, lin.A, atol=1e-6)
    np.testing.assert_allclose(J_del, lin.B, atol=1e-6)


@pytest.mark.parametrize("case", list(CASES))
def test_char_coeffs_frozen(case):
    ref = CASES[case]
    cc = _cc(case)
    for name in ("b", "c", "d", "g", "h", "l1", "l2", "l3"):
        assert getattr(cc, name) == pytest.approx(ref[name], rel=1e-10), name


def test_char_coeffs_symbolic_oracle():
    # symbolic expansion of det(lambda I - A - B E) with E^2 = e^(-2 lambda tau):
    # must factor as (lambda + b1) * (cubic + (g lambda + h) E^2)
    lam, E = sympy.symbols("lam E")
    a1, a2, a12, a21, b1, b2 = sympy.symbols("a1 a2 a12 a21 b1 b2", positive=True)
    y10, y20, r1 = sympy.symbols("y10 y20 r1", positive=True)
    al = a1 + a12 * y20
    be = a2 + a21 * y10
    A = sympy.Matrix([
        [-b1, 0, 0, 0],
        [1, -al, 0, 0],
        [0, 0, -b2, 0],
        [0, 0, 1, -be]])
    B = sympy.zeros(4, 4)
    B[1, 3] = -a12 * y10
    B[2, 1] = r1
    B[3, 1] = -a21 * y20
    M = lam * sympy.eye(4) - A - B * E
    det = sympy.expand(M.det())
    quotient = sympy.simplify(sympy.cancel(det / (lam + b1)))
    expected_b = al + be + b2
    expected_c = al * be + b2 * (al + be)
    expected_d = b2 * al * be
    expected_g = -a12 * y10 * a21 * y20
    expected_h = -a12 * y10 * (b2 * a21 * y20 - r1)
    expected = (lam**3 + expected_b * lam**2 + expected_c * lam + expected_d
                + (expected_g * lam + expected_h) * E**2)
    assert sympy.simplify(sympy.expand(quotient - expected)) == 0


def test_frequency_cubic_coefficient_identities():
    cc = _cc("n2")
    assert cc.l1 == pytest.approx(cc.b**2 - 2.0 * cc.c, rel=1e-14)
    assert cc.l2 == pytest.approx(cc.c**2 - 2.0 * cc.b * cc.d - cc.g**2, rel=1e-14)
    assert cc.l3 == pytest.approx(cc.d**2 - cc.h**2, rel=1e-14)
    assert cc.l3 < 0.0


def test_decay_factor_root():
    # lambda = -b1 is always a characteristic root of the full 4x4 pencil
    p = PRESETS["n2"]
    lin = linearize(p, _eq("n2"))
    for tau in (0.3, 2.0, 41.7):
        M = (-p.b1) * np.eye(4) - lin.A - lin.B * math.exp(p.b1 * tau)
        # the pencil det at lambda=-b1 vanishes; row structure makes the
        # first column identically zero
        assert abs(np.linalg.det(M)) < 1e-10


@pytest.mark.parametrize("case,expected", [("n2", True), ("n4", True),
                                           ("n163", True), ("n164", False)])
def test_routh_hurwitz_presets(case, expected):
    assert routh_hurwitz_stable(_cc(case)) is expected


@pytest.mark.parametrize("case", ["n2", "n164"])
def test_routh_hurwitz_eigenvalue_cross_check(case):
    # zero-delay verdict must agree with eigenvalues of A + B
    p = PRESETS[case]
    lin = linearize(p, _eq(case))
    eigs = np.linalg.eigvals(lin.A + lin.B)
    all_left = bool(np.all(eigs.real < 0.0))
    assert routh_hurwitz_stable(_cc(case)) is all_left


def test_omega_candidates_planted_cubic():
    # (z + 1)(z - 1/4)(z - 4) = z^3 - 13/4 z^2 - 13/4 z + 1 has two positive
    # roots, which no parameter set can produce: char_coeffs gives l1, l2 > 0
    cc = CharCoeffs(b=0, c=0, d=0, g=0, h=0, l1=-3.25, l2=-3.25, l3=1.0,
                    rh_left=0, rh_right=0)
    with pytest.raises(DomainError, match="l1, l2 >= 0"):
        hopf_candidates(cc)


@pytest.mark.parametrize("l1, l2, l3, real_roots", [
    # char.* of the a2 = b2 = 1e-200 run: z^2 (z + l1), no positive root
    (3.1250000000001225e199, 0.0, 0.0, []),
    # s^3 (y^3 + y^2 + y - 1) at z = s y with s = 2^332: F overflows to
    # +inf beyond the root, which has the right sign
    (2.0**332, 2.0**664, -(2.0**996), [0.5436890126920764 * 2.0**332]),
    # the root 1e-300 sits 600 decades below l1
    (1e300, 1e-300, -1e-300, [1e-300]),
])
def test_cubic_roots_with_huge_coefficients(l1, l2, l3, real_roots):
    # real_roots are the positive ones, and the residual is evaluated in
    # exact rationals, relative to the size of the cubic's terms
    root = _cubic_positive_root(l1, l2, l3)
    roots = [] if root is None else [root]
    assert roots == pytest.approx(real_roots, rel=1e-12)
    c1, c2, c3 = map(Fraction, (l1, l2, l3))
    for z in map(Fraction, roots):
        residual = ((z + c1) * z + c2) * z + c3
        size = abs(z) ** 3 + abs(c1) * z * z + abs(c2 * z) + abs(c3)
        assert abs(residual) <= Fraction(1, 10**12) * size


def _bisected_on_the_full_bracket(l1, l2, l3):
    # the solve without Newton steps: F bisected on (0, 2 min((-l3)^(1/3),
    # -l3/l2)] down to adjacent floats
    hi = min((-l3) ** (1.0 / 3.0), -l3 / l2 if l2 > 0.0 else math.inf)
    return _bisect(lambda z: ((z + l1) * z + l2) * z + l3 < 0.0, 0.0, 2.0 * hi)


_DECADES = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(l1=st.one_of(st.just(0.0), _DECADES), l2=st.one_of(st.just(0.0), _DECADES),
       minus_l3=_DECADES)
def test_cubic_newton_steps_give_the_bisected_float(l1, l2, minus_l3):
    # Horner's F is non-decreasing in floats, so the first float with
    # F >= 0 is unique, and the Newton-then-bisect solve finds the same one
    # as bisection on the whole bracket, bit for bit
    assert _cubic_positive_root(l1, l2, -minus_l3) == (
        _bisected_on_the_full_bracket(l1, l2, -minus_l3))


def _sweep_n_grid():
    # perfbench's sweep_n: n = 2..158 in five sweeps of eight at the n4 rates
    for first in range(2, 131, 32):
        spec = SweepSpec(param="n", start=first, stop=first + 28, count=8)
        for n in sweep_values(spec):
            p = PRESETS["n4"]._replace(n=n)
            yield char_coeffs(p, find_equilibria(p)[0])


def test_cubic_solve_evaluates_F_at_most_12_times_on_the_sweep_n_grid(monkeypatch):
    calls = []
    cubic = stability._cubic
    monkeypatch.setattr(stability, "_cubic", lambda *a: calls.append(a) or cubic(*a))
    grid = list(_sweep_n_grid())
    assert len(grid) == 40
    for cc in grid:
        calls.clear()
        root = _cubic_positive_root(cc.l1, cc.l2, cc.l3)
        assert 1 <= len(calls) <= 12
        assert root == _bisected_on_the_full_bracket(cc.l1, cc.l2, cc.l3)


def test_omega_candidates_empty_without_positive_roots():
    # all-positive coefficients force negative real roots only
    cc = CharCoeffs(b=0, c=0, d=0, g=0, h=0, l1=3.0, l2=3.0, l3=1.0,
                    rh_left=0, rh_right=0)
    assert hopf_candidates(cc) is None


@pytest.mark.parametrize("l1", [0.53, 1.3])
def test_omega_candidates_no_root_from_a_complex_pair(l1):
    # roots -l1 and about +-1e-10 i: no positive root, although the
    # discriminant is below its own rounding
    cc = CharCoeffs(b=0, c=0, d=0, g=0, h=0, l1=l1, l2=0.0, l3=1e-20,
                    rh_left=0, rh_right=0)
    assert hopf_candidates(cc) is None


def test_crossing_with_widely_scaled_cubic_is_found():
    # l1 = 1.18e6, l2 = 125.7, l3 = -0.0404: the root z = 1.39e-4 is far
    # below l1, which a depressed-cubic shift by -l1/3 loses
    p = ModelParams(a1=0.054495819239503376, a2=0.007935829723229816,
                    a12=0.05499607655923416, a21=0.0020044713755789758,
                    b1=0.001009107631356451, b2=0.003829344535525291,
                    a=0.05768647988444206, n=20)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    crossing = hopf_candidates(cc)
    hp = first_hopf(cc, crossing)
    assert hp is not None
    assert hp.omega_c == pytest.approx(0.0118082238, rel=1e-8)
    assert hp.tau_c == pytest.approx(37.71734, rel=1e-6)
    assert hp.dlambda_dtau.real > 0.0
    assert classify_stability(cc, 2.0 * hp.tau_c, crossing) == "unstable"


def _exact_routh_hurwitz(p, eq):
    # d + h and b (c + g) - (d + h) at the float equilibrium; 8000 bits
    # hold every product of up to four floats, so the sums are exact
    with mpmath.workprec(8000):
        cc = reference_mp.char_coeffs(p, eq)
    return cc.dh.v, cc.margin.v


def test_routh_hurwitz_verdict_without_cancellation():
    # c + g and d + h cancel in floats: here cc.d + cc.h reads 0, which
    # would give an unstable verdict; evaluated exactly, d + h is 3.1e-16
    # (b2 s = 2.0e-16 plus k12 rho1 = 1.1e-16) and b (c + g) - (d + h) is
    # 2.6e16
    p = ModelParams(a1=1e-16, a2=1.0, a12=1.0, a21=1.0, b1=1e-16, b2=1e-16,
                    a=1.0, n=1)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    assert cc.d + cc.h == 0.0
    dh, margin = _exact_routh_hurwitz(p, eq)
    assert float(dh) == pytest.approx(3.118e-16, rel=1e-3, abs=0.0)
    assert float(margin) == pytest.approx(2.63e16, rel=1e-2)
    assert routh_hurwitz_stable(cc)
    assert classify_stability(cc, 0.0, hopf_candidates(cc)) == "stable"


def test_crossing_with_rates_down_to_1e_94_is_found():
    # l1 = 1.4e76, l2 = 4.1e-10, l3 = -1.6e-188: the root z = 3.8e-179 was
    # lost when the cubic was rescaled by a power of two, which flushed l3
    p = ModelParams(a1=6.258391237719194e-77, a2=2.648027735462592e-46,
                    a12=9.897298184014353e-64, a21=2.4660612532753093e-40,
                    b1=3.732762949809942e-38, b2=3.5717900571239005e-94,
                    a=0.011636971153806437, n=54)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    crossing = hopf_candidates(cc)
    hp = first_hopf(cc, crossing)
    assert hp is not None
    root = reference_mp.frequency(reference_mp.char_coeffs(p, eq)).v
    assert abs(hp.omega_c - root) <= 1e-14 * root
    assert classify_stability(cc, 2.0 * hp.tau_c, crossing) == "unstable"


_RATES = ("a1", "a2", "a12", "a21", "b1", "b2")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exps=st.lists(st.floats(-30.0, 0.0), min_size=6, max_size=6),
       a_exp=st.floats(-2.0, 3.0), n=st.integers(1, 60))
def test_frequency_cubic_structure_with_rates_down_to_1e_30(exps, a_exp, n):
    # l1 > 0 and l2 >= 0 for every valid set, and the crossing layer finds
    # one crossing iff l3 < 0
    p = ModelParams(**{k: 10.0 ** e for k, e in zip(_RATES, exps)},
                    a=10.0 ** a_exp, n=n)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    assert cc.l1 > 0.0 and cc.l2 >= 0.0
    crossing = hopf_candidates(cc)
    assert (crossing is not None) == (cc.l3 < 0.0)
    assert crossing is None or crossing[1]
    # d + h > 0, and the zero-delay verdict is the exact one
    dh, margin = _exact_routh_hurwitz(p, eq)
    assert dh > 0
    assert routh_hurwitz_stable(cc) is (margin > 0)


@functools.cache
def _fixed_random_sample():
    # 2000 sets from random.Random(7): rates log-uniform in [1e-3, 1],
    # a in [1e-2, 1e3], n in 1..40
    rng = random.Random(7)
    names = ("a1", "a2", "a12", "a21", "b1", "b2")
    sample = []
    for _ in range(2000):
        rates = {k: 10.0 ** rng.uniform(-3.0, 0.0) for k in names}
        p = ModelParams(**rates, a=10.0 ** rng.uniform(-2.0, 3.0),
                        n=rng.randint(1, 40))
        eq = find_equilibria(p)[0]
        sample.append((p, eq, char_coeffs(p, eq)))
    return sample


def test_crossings_on_fixed_random_sample_against_mpmath():
    # the model's structure (l1 > 0, l2 > 0, d + h > 0) holds, a crossing
    # is found iff l3 < 0 in 50 digits, omega matches the 50-digit root
    # and every crossing destabilizes
    crossings = 0
    for p, eq, cc in _fixed_random_sample():
        assert cc.l1 > 0.0 and cc.l2 > 0.0 and cc.d + cc.h > 0.0
        crossing = hopf_candidates(cc)
        ref = reference_mp.char_coeffs(p, eq)
        assert (crossing is not None) == (ref.l3.v < 0), p
        if crossing is not None:
            omega, taus = crossing
            crossings += 1
            root = reference_mp.frequency(ref).v
            assert abs(omega - root) <= 1e-14 * root, p
            assert taus
            for tau in taus:
                assert transversality(omega, tau, cc).real > 0.0, p
    assert crossings > 500


def test_E_vectors_on_fixed_random_sample_against_mpmath():
    # at every crossing of the sample above, E1 = Delta(0)^-1 F11 and
    # E2 = Delta(2 i omega_c)^-1 F20 match a 50-digit solve of the 4x4
    # characteristic matrix to 1e-14 in norm
    crossings = 0
    for p, eq, cc in _fixed_random_sample():
        hp = first_hopf(cc, hopf_candidates(cc))
        if hp is None:
            continue
        crossings += 1
        ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
        _, _, _, F20, F11, _ = g_quadratic(p, eq, ep, hp.tau_c)
        E1, E2 = solve_E_vectors(p, eq, hp.omega_c, hp.tau_c, F20, F11)
        for lam, F, E in ((0.0, F11, E1), (2j * hp.omega_c, F20, E2)):
            M = reference_mp.char_matrix(p, eq, lam, hp.tau_c)
            ref = [x.v for x in reference_mp.solve(M, F)]
            err = mpmath.norm([x - r for x, r in zip(E, ref)])
            assert err <= 1e-14 * mpmath.norm(ref), p
    assert crossings > 500


def test_n163_critical_delay_against_mpmath(preset_data):
    # n163 sits 7 % below the zero-delay Routh-Hurwitz boundary, so
    # arg G(i omega_c) is small and tau_c is ill-conditioned; the float
    # chain must still match a 50-digit one from the same equilibrium
    p, eq, _, hp = preset_data["n163"]
    cc = reference_mp.char_coeffs(p, eq)
    tau = reference_mp.ladder(reference_mp.frequency(cc), cc, 0)[0].v
    with mpmath.workdps(50):
        assert abs(tau / mpmath.mpf("0.0021362560646201398543") - 1) < 1e-17
    assert abs(hp.tau_c - tau) <= 1e-14 * tau


@pytest.mark.parametrize("case", list(CASES))
def test_preset_crossing_frequency_frozen(case):
    ref = CASES[case]
    crossing = hopf_candidates(_cc(case))
    assert crossing is not None
    assert crossing[0] == pytest.approx(ref["omega"], rel=1e-10)


@pytest.mark.parametrize("case", list(CASES))
def test_critical_delay_ladder_frozen(case):
    ref = CASES[case]
    taus = critical_delays(ref["omega"], _cc(case), k_max=3)
    assert len(taus) == len(ref["taus"])
    for got, want in zip(taus, ref["taus"]):
        assert got == pytest.approx(want, rel=1e-10)


def test_critical_delays_requires_crossing_frequency():
    with pytest.raises(DomainError):
        critical_delays(0.5, _cc("n2"))


@pytest.mark.parametrize("case", list(CASES))
def test_characteristic_residual_at_crossings(case):
    ref = CASES[case]
    cc = _cc(case)
    for tau in ref["taus"]:
        assert abs(characteristic_residual(1j * ref["omega"], tau, cc)) < 1e-9


@pytest.mark.parametrize("case", list(CASES))
def test_real_imaginary_split_identities(case):
    # the two real equations equivalent to Delta(i omega, tau) = 0
    ref = CASES[case]
    cc = _cc(case)
    w = ref["omega"]
    for tau in ref["taus"]:
        co, si = math.cos(2 * w * tau), math.sin(2 * w * tau)
        re = -cc.b * w**2 + cc.d + cc.h * co + cc.g * w * si
        im = cc.c * w - w**3 + cc.g * w * co - cc.h * si
        assert abs(re) < 1e-8
        assert abs(im) < 1e-8


@pytest.mark.parametrize("case", list(CASES))
def test_transversality_frozen(case):
    ref = CASES[case]
    cc = _cc(case)
    dl = transversality(ref["omega"], ref["taus"][0], cc)
    assert dl.real == pytest.approx(ref["dl_implicit"].real, rel=1e-9)
    assert dl.imag == pytest.approx(ref["dl_implicit"].imag, rel=1e-9)
    assert dl.real > 0.0
    dlc, L1, L2 = transversality_closed_form(ref["omega"], ref["taus"][0], cc)
    assert dlc.real == pytest.approx(ref["dl_closed"].real, rel=1e-9)
    assert dlc.imag == pytest.approx(ref["dl_closed"].imag, rel=1e-9)
    assert L1 == pytest.approx(ref["L1"], rel=1e-9)
    assert L2 == pytest.approx(ref["L2"], rel=1e-9)


@pytest.mark.parametrize("case", list(CASES))
def test_implicit_equals_exact_trigonometric_form(case):
    # the 50-digit implicit derivative -Delta_tau/Delta_lambda
    ref = CASES[case]
    cc = _cc(case)
    w, tau = ref["omega"], ref["taus"][0]
    exact = complex(reference_mp.transversality(w, tau, cc)[0].v)
    dl = transversality(w, tau, cc)
    assert dl.real == pytest.approx(exact.real, rel=1e-12)
    assert dl.imag == pytest.approx(exact.imag, rel=1e-12)


def _scaled(cc, k):
    # Delta's coefficients under lambda -> k lambda: the crossings move to
    # (k omega, tau / k)
    return CharCoeffs(b=k * cc.b, c=k**2 * cc.c, d=k**3 * cc.d, g=k**2 * cc.g,
                      h=k**3 * cc.h, l1=k**2 * cc.l1, l2=k**4 * cc.l2,
                      l3=k**6 * cc.l3, rh_left=k**3 * cc.rh_left,
                      rh_right=k**3 * cc.rh_right)


def test_crossing_guards_are_scale_free():
    # k is a power of two, so the scaled crossing is exact: the ladder
    # scales by 1/k and the implicit derivative by k^2, to the bit. The
    # denominators fall far below absolute thresholds such as 1e-12, 1e-24
    # and 1e-300, but not below the sums of their terms' moduli
    cc = _cc("n2")
    hp = first_hopf(cc, hopf_candidates(cc))
    k = 2.0**-170
    ck = _scaled(cc, k)
    assert transversality(k * hp.omega_c, hp.tau_c / k, ck) == k * k * hp.dlambda_dtau
    dl, L1, L2 = transversality_closed_form(k * hp.omega_c, hp.tau_c / k, ck)
    assert math.isfinite(dl.real) and math.isfinite(dl.imag) and L1 * L1 + L2 * L2 > 0.0
    for k in (2.0**-170, 2.0**-330):
        taus = critical_delays(k * hp.omega_c, _scaled(cc, k))
        assert [t * k for t in taus] == critical_delays(hp.omega_c, cc)


def test_transversality_with_rates_down_to_1e_65():
    # |den| = 2.6e-22 is 0.73 of the sum of its terms' moduli, so the
    # crossing is not degenerate although |den| is far below 1e-12
    p = ModelParams(a1=3.86e-62, a2=1.23e-65, a12=3.22e-42, a21=2.66e-42,
                    b1=2.63e-10, b2=1.58e-32, a=441.3, n=55)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    crossing = hopf_candidates(cc)
    hp = first_hopf(cc, crossing)
    # the sign rule: sign Re dlambda/dtau = sign F'(omega^2) > 0
    assert hp.dlambda_dtau.real == pytest.approx(2.218e-81, rel=1e-3)
    assert classify_stability(cc, 2.0 * hp.tau_c, crossing) == "unstable"
    run = analyze_params(p, AnalysisConfig(sim=SimSpec(enabled=False)))
    assert run.branches[0].error is None


@pytest.mark.parametrize("case", list(CASES))
def test_transversality_against_root_continuation(case):
    # independent oracle: continue the characteristic root across tau_c
    # by Newton and difference it
    ref = CASES[case]
    cc = _cc(case)
    w, tau = ref["omega"], ref["taus"][0]
    h = 1e-4 * max(tau, 1.0)
    if tau < 1.0:
        h = 1e-3 * tau
    lam_p = newton_root(cc, tau + h, 1j * w)
    lam_m = newton_root(cc, tau - h, 1j * w)
    fd = (lam_p - lam_m) / (2.0 * h)
    dl = transversality(w, tau, cc)
    assert dl.real == pytest.approx(fd.real, rel=1e-4)
    assert dl.imag == pytest.approx(fd.imag, rel=1e-4)


def test_first_hopf_picks_smallest_delay(preset_data):
    for case, (_, _, cc, hp) in preset_data.items():
        ref = CASES[case]
        assert hp is not None
        assert hp.tau_c == pytest.approx(ref["taus"][0], rel=1e-10)
        assert hp.omega_c == pytest.approx(ref["omega"], rel=1e-10)


def test_hopf_candidates_structure():
    crossing = hopf_candidates(_cc("n2"), k_max=8)
    assert crossing is not None
    omega, taus = crossing
    assert len(taus) == 9
    assert all(t2 > t1 for t1, t2 in zip(taus, taus[1:]))


def test_classify_stability_verdicts():
    cc = _cc("n2")
    crossing = hopf_candidates(cc)
    tau_c = CASES["n2"]["taus"][0]
    assert classify_stability(cc, 0.0, crossing) == "stable"
    assert classify_stability(cc, 0.5 * tau_c, crossing) == "stable"
    assert classify_stability(cc, tau_c, crossing) == "at-bifurcation"
    assert classify_stability(cc, tau_c + 1e-10, crossing) == "at-bifurcation"
    assert classify_stability(cc, tau_c + 1.0, crossing) == "unstable"
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError):
            classify_stability(cc, bad, crossing)


def test_classify_stability_at_every_rung():
    # rungs beyond the k_max = 8 of hopf_candidates are critical delays too
    cc = _cc("n2")
    crossing = hopf_candidates(cc)
    taus = critical_delays(CASES["n2"]["omega"], cc, k_max=12)
    assert taus[9] == pytest.approx(2498.6763671445965, rel=1e-12)
    assert taus[12] == pytest.approx(3301.496598934181, rel=1e-12)
    for tau in (taus[9], taus[12]):
        assert classify_stability(cc, tau, crossing) == "at-bifurcation"
        assert classify_stability(cc, tau + 1e-10, crossing) == "at-bifurcation"
        assert classify_stability(cc, tau + 1.0, crossing) == "unstable"
    assert classify_stability(cc, math.inf, crossing) == "unstable"


def test_classify_stability_zero_delay_unstable_case():
    cc = _cc("n164")
    crossing = hopf_candidates(cc)
    assert classify_stability(cc, 0.0, crossing) == "unstable"
    assert classify_stability(cc, 1.0, crossing) == "unstable"


def test_decoupled_loop_has_no_crossings():
    from hopf_dde import ModelParams, find_equilibria
    p = ModelParams(a1=0.13, a2=0.13, a12=0.0, a21=0.0,
                    b1=0.8, b2=0.01, a=4.0, n=2)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    assert hopf_candidates(cc) is None
    assert routh_hurwitz_stable(cc)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tau=st.floats(0.01, 200.0))
def test_residual_never_explodes_on_ladder(tau):
    # characteristic residual is well-conditioned at moderate delays
    cc = _cc("n4")
    val = characteristic_residual(0.1 + 0.2j, tau, cc)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
