"""Normal form: eigenpairs, projections, E-vectors, Hopf quantities."""

import math

import numpy as np
import pytest
import sympy

from hopf_dde import (PRESETS, DomainError, ModelParams, SingularSystemError,
                      char_coeffs, compute_eigenpair,
                      compute_normal_form, find_equilibria, first_hopf,
                      g_quadratic, hopf_candidates, hopf_quantities,
                      solve_E_vectors)
from hopf_dde.normal_form import _B2, left_eigenvector_raw, right_eigenvector

import reference_mp
from reference_model import characteristic_residual, linearize, pairing_quadrature
from reference_values import CASES


def _pencil(p, eq, lam, tau):
    lin = linearize(p, eq)
    return lam * np.eye(4) - lin.A - lin.B * np.exp(-lam * tau)


@pytest.mark.parametrize("case", list(CASES))
def test_eigenvector_residuals(case, preset_data):
    p, eq, _, hp = preset_data[case]
    M = _pencil(p, eq, 1j * hp.omega_c, hp.tau_c)
    v = np.asarray(right_eigenvector(p, eq, hp.omega_c, hp.tau_c))
    wh = np.asarray(left_eigenvector_raw(p, eq, hp.omega_c, hp.tau_c))
    assert np.linalg.norm(M @ v) < 1e-9 * np.linalg.norm(v)
    assert np.linalg.norm(wh @ M) < 1e-9 * np.linalg.norm(wh)


def test_right_eigenvector_needs_coupled_loop():
    p = ModelParams(a1=0.13, a2=0.13, a12=0.0, a21=0.0,
                    b1=0.8, b2=0.01, a=4.0, n=2)
    eq = find_equilibria(p)[0]
    with pytest.raises(DomainError):
        right_eigenvector(p, eq, 0.1, 1.0)


@pytest.mark.parametrize("case", list(CASES))
def test_pairing_normalized_closed_form(case, preset_data):
    # w is the 50-digit null row scaled by the pairing's closed form
    p, eq, _, hp = preset_data[case]
    ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
    ref = reference_mp.normal_form(p, eq, hp.omega_c, hp.tau_c, 1, 1)
    assert np.allclose(ep.w, [complex(x.v) for x in ref.w], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", list(CASES))
def test_pairing_orthonormality_by_quadrature(case, preset_data):
    # the four relations between the eigenpair and its conjugates, with
    # the delay integral done by Simpson quadrature instead of the
    # closed form
    p, eq, _, hp = preset_data[case]
    ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
    B = linearize(p, eq).B
    lam1 = 1j * hp.omega_c
    tau = hp.tau_c
    w, v = np.asarray(ep.w), np.asarray(ep.v)
    wc, vc = np.conj(w), np.conj(v)
    assert abs(pairing_quadrature(w, v, B, tau, -lam1, lam1) - 1.0) < 1e-9
    assert abs(pairing_quadrature(w, vc, B, tau, -lam1, -lam1)) < 1e-9
    assert abs(pairing_quadrature(wc, v, B, tau, lam1, lam1)) < 1e-9
    assert abs(pairing_quadrature(wc, vc, B, tau, lam1, -lam1) - 1.0) < 1e-9


@pytest.mark.parametrize("case", list(CASES))
def test_projection_coefficients_frozen(case, preset_data):
    ref = CASES[case]
    p, eq, _, hp = preset_data[case]
    nf = compute_normal_form(p, eq, hp)
    for name in ("g20", "g11", "g02", "g21", "C1"):
        got = getattr(nf, name)
        want = ref[name]
        assert got.real == pytest.approx(want.real, rel=1e-9, abs=1e-14), name
        assert got.imag == pytest.approx(want.imag, rel=1e-9, abs=1e-14), name
    np.testing.assert_allclose(nf.E1, np.array(ref["E1"]), rtol=1e-9,
                               atol=1e-12)
    np.testing.assert_allclose(nf.E2, np.array(ref["E2"]), rtol=1e-9,
                               atol=1e-12)


@pytest.mark.parametrize("case", list(CASES))
def test_hopf_quantities_frozen_both_routes(case, preset_data):
    ref = CASES[case]
    p, eq, _, hp = preset_data[case]
    nf = compute_normal_form(p, eq, hp)
    assert nf.mu2 == pytest.approx(ref["mu2"], rel=1e-9)
    assert nf.beta2 == pytest.approx(ref["beta2"], rel=1e-9)
    assert nf.T2 == pytest.approx(ref["T2"], rel=1e-9)
    assert nf.mu2_implicit == pytest.approx(ref["mu2_implicit"], rel=1e-9)
    assert nf.T2_implicit == pytest.approx(ref["T2_implicit"], rel=1e-9)


def test_preset_verdicts_and_conflict_flags(preset_data):
    expectations = (
        ("n2", True, "subcritical", "decreasing"),
        ("n4", True, "subcritical", "decreasing"),
        ("n163", True, "subcritical", "increasing"),
        ("n164", False, "supercritical", "increasing"),
    )
    for case, expect_conflict, direction, trend in expectations:
        p, eq, _, hp = preset_data[case]
        nf = compute_normal_form(p, eq, hp)
        assert nf.transversality_conflict is expect_conflict
        assert (nf.mu2 > 0.0) is (direction == "supercritical")
        assert nf.direction == direction
        assert nf.period_trend == trend
        assert nf.beta2 < 0.0
        assert nf.orbit_stability == "stable"


def test_internal_consistency_of_quantities(preset_data):
    p, eq, _, hp = preset_data["n4"]
    nf = compute_normal_form(p, eq, hp)
    assert nf.beta2 == pytest.approx(2.0 * nf.C1.real, rel=1e-14)
    assert nf.mu2 == pytest.approx(-nf.C1.real / hp.dlambda_dtau_closed.real,
                                   rel=1e-12)
    assert nf.T2 == pytest.approx(
        -(nf.C1.imag + nf.mu2 * hp.dlambda_dtau_closed.imag) / hp.omega_c,
        rel=1e-12)
    assert nf.mu2_implicit == pytest.approx(
        -nf.C1.real / hp.dlambda_dtau.real, rel=1e-12)


@pytest.mark.parametrize("case", list(CASES))
def test_E1_is_essentially_real(case, preset_data):
    p, eq, _, hp = preset_data[case]
    nf = compute_normal_form(p, eq, hp)
    E1 = np.asarray(nf.E1)
    scale = max(1.0, float(np.max(np.abs(E1))))
    assert float(np.max(np.abs(E1.imag))) < 1e-10 * scale


@pytest.mark.parametrize("n", [2, 4, 163, 164, 18, 6])
def test_E1_imaginary_parts_are_exactly_zero(n):
    # E1 = Delta(0)^-1 B2(q, qb) is real, so the report prints every
    # nf.E1.k.im as 0, not -0 or rounding residue: the four presets, and
    # n = 18 and n = 6 of the n4 rates (perfbench sweep_n points; n = 6
    # printed residue of about 1e-17 while E1 was solved in complex
    # arithmetic)
    p = PRESETS["n4"]._replace(n=n)
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    nf = compute_normal_form(p, eq, first_hopf(cc, hopf_candidates(cc)))
    for z in nf.E1:
        assert z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0


@pytest.mark.parametrize("case", list(CASES))
def test_E_vector_solve_residuals(case, preset_data):
    p, eq, _, hp = preset_data[case]
    ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
    _, _, _, F20, F11, _ = g_quadratic(p, eq, ep, hp.tau_c)
    E1, E2 = solve_E_vectors(p, eq, hp.omega_c, hp.tau_c, F20, F11)
    F20, F11, E1, E2 = map(np.asarray, (F20, F11, E1, E2))
    lin = linearize(p, eq)
    lam1 = 1j * hp.omega_c
    M2 = lin.A + lin.B * np.exp(-2.0 * lam1 * hp.tau_c) - 2.0 * lam1 * np.eye(4)
    M1 = (lin.A + lin.B).astype(complex)
    assert np.linalg.norm(M2 @ E2 + F20) <= 1e-10 * max(1.0, np.linalg.norm(F20))
    assert np.linalg.norm(M1 @ E1 + F11) <= 1e-10 * max(1.0, np.linalg.norm(F11))


@pytest.mark.parametrize("case", list(CASES))
def test_manifold_coefficient_boundary_identities(case, preset_data):
    # the package takes g21 from C1 in characteristic-matrix form; the
    # reference builds it from the Hassard-Kazarinoff-Wan coefficients
    # w20, w11, which solve the boundary problems of the centre manifold
    p, eq, _, hp = preset_data[case]
    want = complex(reference_mp.normal_form(p, eq, hp.omega_c, hp.tau_c, 1, 1).g21.v)
    assert abs(compute_normal_form(p, eq, hp).g21 - want) <= 1e-12 * abs(want)


#: a12 != a21, so the two coupling rates cannot stand in for each other;
#: Routh-Hurwitz stable at zero delay, first Hopf point at tau_c = 107.6
ASYMMETRIC = ModelParams(a1=0.13, a2=0.13, a12=0.02, a21=0.05,
                         b1=0.8, b2=0.01, a=4.0, n=2)
_DIGITS = 30


def _sym(x):
    x = complex(x)
    return sympy.Float(x.real, _DIGITS) + sympy.I * sympy.Float(x.imag, _DIGITS)


def _taylor_reference(p, eq, ep, omega, tau):
    # F20, F11, F02 and g21 from a sympy Taylor expansion of the model
    # equations about the equilibrium, independent of the hand-assembled
    # blocks: the Hill derivatives come from differentiating
    # x^n / (a + x^n). The eigenpair is the package's; the manifold
    # coefficients w20, w11, at theta = 0 and -tau, are the reference's
    # Hassard-Kazarinoff-Wan ones
    a1, a2, a12, a21, b1, b2, a = (
        sympy.Float(getattr(p, k), _DIGITS)
        for k in ("a1", "a2", "a12", "a21", "b1", "b2", "a"))
    state = x1, y1, x2, y2 = sympy.symbols("x1 y1 x2 y2")
    y1d, y2d = sympy.symbols("y1d y2d")
    rhs = [1 - b1 * x1,
           x1 - (a1 + a12 * y2d) * y1,
           y1d**p.n / (a + y1d**p.n) - b2 * x2,
           x2 - (a2 + a21 * y1d) * y2]
    x0 = [sympy.Float(c, _DIGITS) for c in eq.state()]
    at_eq = dict(zip(state, x0)) | {y1d: x0[1], y2d: x0[3]}

    # quadratic plus cubic Taylor terms in the deviations u (at t) and
    # d2, d4 (y1, y2 at t - tau); quartic terms cannot reach z^2 zbar
    u = sympy.symbols("u1:5")
    d2, d4 = sympy.symbols("d2 d4")
    directions = list(zip(state, u)) + [(y1d, d2), (y2d, d4)]
    nonlinear = []
    for r in rhs:
        term, total = r, 0
        for k in (1, 2, 3):
            term = sum(dv * sympy.diff(term, s) for s, dv in directions)
            if k > 1:
                total += term.subs(at_eq) / sympy.factorial(k)
        nonlinear.append(total)

    z, zb = sympy.symbols("z zb")
    w = np.asarray(ep.w)

    def coefficients(phi, monomials):
        # phi = (value, delayed value) -> per-monomial coefficient vectors
        sub = dict(zip(u, phi[0])) | {d2: phi[1][1], d4: phi[1][3]}
        rows = []
        for e in nonlinear:
            poly = sympy.Poly(sympy.expand(e.subs(sub)), z, zb)
            rows.append([complex(poly.coeff_monomial(m)) for m in monomials])
        return np.array(rows).T

    linear = [[z * _sym(x) + zb * _sym(np.conj(x)) for x in q] for q in ep.q]
    c20, c11, c02 = coefficients(linear, (z**2, z * zb, zb**2))
    ref = reference_mp.normal_form(p, eq, omega, tau, 1, 1)
    manifold = [[lin + z**2 / 2 * _sym(w20.v) + z * zb * _sym(w11.v)
                 + zb**2 / 2 * _sym(np.conj(complex(w20.v)))
                 for lin, w20, w11 in zip(linear[i], ref.W20[i], ref.W11[i])]
                for i in (0, 1)]
    (c21,) = coefficients(manifold, (z**2 * zb,))
    return 2.0 * c20, c11, 2.0 * c02, complex(w @ (2.0 * c21))


@pytest.mark.parametrize("case", list(CASES) + ["asymmetric"])
def test_reduction_matches_taylor_expansion(case, preset_data):
    if case == "asymmetric":
        p = ASYMMETRIC
        eq = find_equilibria(p)[0]
        cc = char_coeffs(p, eq)
        hp = first_hopf(cc, hopf_candidates(cc))
    else:
        p, eq, _, hp = preset_data[case]
    ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
    *want_F, want_g21 = _taylor_reference(p, eq, ep, hp.omega_c, hp.tau_c)
    *got_g, F20, F11, F02 = g_quadratic(p, eq, ep, hp.tau_c)
    for name, got, want in zip(("F20", "F11", "F02"), (F20, F11, F02), want_F):
        for j in range(4):
            assert abs(got[j] - want[j]) <= 1e-12 * abs(want[j]), (name, j)
    w = np.asarray(ep.w)
    for got, want in zip(got_g, want_F):
        assert abs(got - w @ want) <= 1e-12 * abs(w @ want)
    g21 = compute_normal_form(p, eq, hp).g21
    assert abs(g21 - want_g21) <= 1e-12 * abs(want_g21)


def test_conjugation_symmetry_of_reduction(preset_data):
    # running the whole chain at -omega must conjugate every complex
    # output and leave the real classification quantities unchanged
    p, eq, _, hp = preset_data["n4"]

    def chain(omega):
        nf = compute_normal_form(p, eq, hp._replace(
            omega_c=omega, dlambda_dtau=1.0 + 0.0j,
            dlambda_dtau_closed=1.0 + 0.0j))
        return nf.C1, nf.mu2, nf.beta2

    C1p, mu2p, beta2p = chain(hp.omega_c)
    C1m, mu2m, beta2m = chain(-hp.omega_c)
    assert C1m.real == pytest.approx(C1p.real, rel=1e-12)
    assert C1m.imag == pytest.approx(-C1p.imag, rel=1e-12)
    assert mu2m == pytest.approx(mu2p, rel=1e-12)
    assert beta2m == pytest.approx(beta2p, rel=1e-12)


def test_hopf_quantities_degenerate_inputs_raise():
    with pytest.raises(SingularSystemError):
        hopf_quantities(0.0j, 1.0 + 0.0j, 1.0)
    with pytest.raises(SingularSystemError):
        hopf_quantities(0.5 + 0.0j, 1.0j, 1.0)


def test_quadratic_blocks_vanish_without_coupling_or_curvature():
    p = ModelParams(a1=0.13, a2=0.13, a12=0.0, a21=0.0,
                    b1=0.8, b2=0.01, a=4.0, n=2)
    eq = find_equilibria(p)[0]._replace(rho2=0.0)
    v = np.array([0.1 + 0.2j, 0.3, 1.0, -0.4j])
    q = (v, v * np.exp(-0.3j * 2.0))
    qb = (np.conj(q[0]), np.conj(q[1]))
    F20, F11, F02 = _B2(p, eq, q, q), _B2(p, eq, q, qb), _B2(p, eq, qb, qb)
    assert F20 == F11 == F02 == (0.0,) * 4


@pytest.mark.parametrize("case", list(CASES))
def test_E_vectors_raise_at_1_2_resonance(case, preset_data):
    # at half the crossing frequency, 2 i omega is the crossing root
    # i omega_c itself at tau_c, so Delta(2 i omega) is singular
    p, eq, cc, hp = preset_data[case]
    half = hp._replace(omega_c=hp.omega_c / 2.0)
    assert abs(characteristic_residual(1j * hp.omega_c, hp.tau_c, cc)) < 1e-15
    with pytest.raises(SingularSystemError, match="resonant"):
        compute_normal_form(p, eq, half)


@pytest.mark.parametrize("case", list(CASES))
def test_E_vectors_raise_at_zero_root(case, preset_data):
    # rho1 = b2 a21 y20 - d / (a12 y10) makes h = -d, so 0 is a root of
    # Delta(lambda, tau) and Delta(0) = -(A + B) is singular
    p, eq, cc, hp = preset_data[case]
    bad = eq._replace(rho1=p.b2 * p.a21 * eq.y20 - cc.d / (p.a12 * eq.y10))
    bad_cc = char_coeffs(p, bad)
    assert abs(bad_cc.d + bad_cc.h) <= 1e-15 * abs(bad_cc.d)
    with pytest.raises(SingularSystemError, match="resonant"):
        compute_normal_form(p, bad, hp)
