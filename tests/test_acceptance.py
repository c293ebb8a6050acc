"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Hard tolerances are asserted. Soft magnitude targets that the
implementation cannot reproduce are printed as DISCREPANCY lines and do
not fail the criterion; the hard part (signs, residuals) still must
hold. Criterion 8 checks the post-critical oscillation only on a preset
whose equilibrium is stable at zero delay (Routh-Hurwitz), so that the
first crossing at tau_c is the first loss of stability, as the Hopf
theorem requires; the test asserts that precondition before simulating.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from hopf_dde import (IY1, PRESETS, build_equilibrium, char_coeffs,
                      classify_stability, cli, constant_history,
                      compute_eigenpair, compute_normal_form,
                      find_equilibria, first_hopf,
                      hopf_candidates, integrate,
                      routh_hurwitz_stable, transversality, upward_crossings)

from reference_model import (characteristic_residual, linearize, newton_root,
                             pairing_quadrature)

# external reference values; the quadruples and crossing points are hard
# targets, the mu2/beta2 magnitudes are soft (sign is the contract)
EQUILIBRIA = {
    "n2": (1.25, 0.72279716, 11.55208766, 79.96962531),
    "n4": (1.25, 0.82091152, 10.19581588, 69.63487984),
    "n163": (1.25, 0.99390609, 8.45060883, 56.38320475),
    "n164": (1.25, 0.99394289, 8.45030131, 56.38087608),
}
CROSSINGS_TIGHT = {
    "n2": (0.01173958, 90.21567180),
    "n4": (0.02969208, 26.61818721),
}
CROSSINGS_LOOSE = {
    "n163": 0.00213625,
    "n164": 7.40096599,
}
SOFT_MU2 = {"n2": -15.56012572, "n4": -22.21740930,
            "n163": -12.63855144, "n164": 4.70953378}
SOFT_BETA2 = {"n2": -0.00020024, "n4": -0.00987558,
              "n163": -0.53197047, "n164": -1.32779287}

CASES = ("n2", "n4", "n163", "n164")


def _analysis(case):
    p = PRESETS[case]
    eq = find_equilibria(p)[0]
    cc = char_coeffs(p, eq)
    return p, eq, cc, first_hopf(cc, hopf_candidates(cc))


def test_criterion_1_equilibrium_quadruples():
    t0 = time.monotonic()
    for case in CASES:
        eqs = find_equilibria(PRESETS[case])
        assert len(eqs) == 1, case
        got = eqs[0].state()
        for name, g, want in zip(("x1", "y1", "x2", "y2"), got, EQUILIBRIA[case]):
            assert g == pytest.approx(want, rel=1e-5), f"{case} {name}"
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_characteristic_residuals():
    t0 = time.monotonic()
    for case in CASES:
        _, _, cc, _ = _analysis(case)
        omega, taus = hopf_candidates(cc, k_max=8)
        lam = 1j * omega
        ratio = -(cc.g * lam + cc.h) / (lam**3 + cc.b * lam**2
                                        + cc.c * lam + cc.d)
        assert abs(abs(ratio) - 1.0) < 1e-8, case
        for tau in taus:
            assert abs(characteristic_residual(lam, tau, cc)) < 1e-9, \
                (case, tau)
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_crossing_points():
    t0 = time.monotonic()
    for case, (omega_t, tau_t) in CROSSINGS_TIGHT.items():
        _, _, cc, _ = _analysis(case)
        omega, taus = crossing = hopf_candidates(cc, k_max=8)
        hit = (abs(omega - omega_t) <= 1e-3 * omega_t
               and any(abs(tau - tau_t) <= 1e-3 * tau_t for tau in taus))
        assert hit, f"{case}: no rung matches ({omega_t}, {tau_t}): {crossing}"
    for case, tau_t in CROSSINGS_LOOSE.items():
        _, _, cc, _ = _analysis(case)
        crossing = hopf_candidates(cc, k_max=8)
        hit = any(abs(tau - tau_t) <= 1e-2 * tau_t for tau in crossing[1])
        assert hit, f"{case}: no delay near {tau_t}: {crossing}"
    assert time.monotonic() - t0 < 1.0


def test_criterion_4_transversality_against_continuation():
    t0 = time.monotonic()
    for case in CASES:
        _, _, cc, hp = _analysis(case)
        omega, tau = hp.omega_c, hp.tau_c
        h = 1e-3 * tau if tau < 1.0 else 1e-4 * max(tau, 1.0)
        lam_p = newton_root(cc, tau + h, 1j * omega)
        lam_m = newton_root(cc, tau - h, 1j * omega)
        fd = (lam_p - lam_m) / (2.0 * h)
        dl = transversality(omega, tau, cc)
        assert dl.real != 0.0, case
        assert dl.real == pytest.approx(fd.real, rel=1e-4), case
        assert dl.imag == pytest.approx(fd.imag, rel=1e-4), case
    assert time.monotonic() - t0 < 5.0


def test_criterion_5_bifurcation_classification():
    t0 = time.monotonic()
    for case in CASES:
        p, eq, _, hp = _analysis(case)
        nf = compute_normal_form(p, eq, hp)
        want_mu2, want_beta2 = SOFT_MU2[case], SOFT_BETA2[case]
        assert math.copysign(1.0, nf.mu2) == math.copysign(1.0, want_mu2), \
            f"{case}: mu2 sign {nf.mu2} vs {want_mu2}"
        assert math.copysign(1.0, nf.beta2) == math.copysign(1.0, want_beta2), \
            f"{case}: beta2 sign {nf.beta2} vs {want_beta2}"
        for name, got, want in (("mu2", nf.mu2, want_mu2),
                                ("beta2", nf.beta2, want_beta2)):
            if abs(got - want) > 1e-2 * abs(want):
                print(f"DISCREPANCY {case} {name}: computed {got:.8g}, "
                      f"reference magnitude {want:.8g} (signs agree)")
    assert time.monotonic() - t0 < 10.0


def test_criterion_6_reduction_residuals():
    t0 = time.monotonic()
    from hopf_dde import g_quadratic, solve_E_vectors
    for case in CASES:
        p, eq, _, hp = _analysis(case)
        lam1 = 1j * hp.omega_c
        tau = hp.tau_c
        lin = linearize(p, eq)
        M = lam1 * np.eye(4) - lin.A - lin.B * np.exp(-lam1 * tau)
        ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
        w, v = np.asarray(ep.w), np.asarray(ep.v)
        assert np.linalg.norm(M @ v) < 1e-9, case
        assert np.linalg.norm(w @ M) < 1e-9, case
        wc, vc = np.conj(w), np.conj(v)
        B = lin.B
        assert abs(pairing_quadrature(w, v, B, tau, -lam1, lam1) - 1.0) < 1e-9
        assert abs(pairing_quadrature(w, vc, B, tau, -lam1, -lam1)) < 1e-9
        assert abs(pairing_quadrature(wc, v, B, tau, lam1, lam1)) < 1e-9
        assert abs(pairing_quadrature(wc, vc, B, tau, lam1, -lam1) - 1.0) < 1e-9
        _, _, _, F20, F11, _ = g_quadratic(p, eq, ep, tau)
        E1, E2 = solve_E_vectors(p, eq, hp.omega_c, tau, F20, F11)
        F20, F11, E1, E2 = map(np.asarray, (F20, F11, E1, E2))
        M2 = lin.A + lin.B * np.exp(-2.0 * lam1 * tau) - 2.0 * lam1 * np.eye(4)
        M1 = (lin.A + lin.B).astype(complex)
        assert np.linalg.norm(M2 @ E2 + F20) < 1e-10 * max(1.0, np.linalg.norm(F20))
        assert np.linalg.norm(M1 @ E1 + F11) < 1e-10 * max(1.0, np.linalg.norm(F11))
    assert time.monotonic() - t0 < 5.0


def test_criterion_7_self_convergence_order():
    t0 = time.monotonic()
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    tau = 45.0
    hist = constant_history(np.asarray(eq.state()) * 1.01)

    def endpoint(step):
        return integrate(p, tau, hist, t_end=200.0, step=step).states[-1]

    ref = endpoint(0.009765625)
    e1 = np.linalg.norm(endpoint(0.15625) - ref)
    e2 = np.linalg.norm(endpoint(0.078125) - ref)
    order = math.log2(e1 / e2)
    print(f"step-halving errors {e1:.3e} -> {e2:.3e}, order {order:.3f}")
    assert 3.8 < order < 4.2
    assert time.monotonic() - t0 < 30.0


def test_criterion_8_dynamics_on_both_sides():
    t0 = time.monotonic()

    # decay below the critical delay for the zero-delay-stable preset
    p, eq, cc, hp = _analysis("n2")
    tau = 0.5 * hp.tau_c
    t_end = 20.0 * hp.tau_c
    step = tau / 512.0
    state = np.asarray(eq.state())
    hist = constant_history(state * 1.01)
    traj = integrate(p, tau, hist, t_end=t_end, step=step)
    dev0 = np.linalg.norm(state * 1.01 - state)
    dev1 = np.linalg.norm(traj.states[-1] - state)
    ratio = dev1 / dev0
    print(f"n2 at tau = 0.5 tau_c: deviation ratio {ratio:.6f}")
    assert ratio < 0.1

    # sustained oscillation just past the critical delay for the same
    # preset, with the cycle period read from upward crossings over the
    # last third; the Hopf theorem needs every other root in the open left
    # half-plane at the crossing, so the preset must be stable at zero
    # delay and lose stability first at tau_c
    assert routh_hurwitz_stable(cc), \
        "oscillation preset is unstable at zero delay"
    crossing = hopf_candidates(cc)
    assert classify_stability(cc, 0.5 * hp.tau_c, crossing) == "stable", \
        "oscillation preset is not stable below tau_c"
    assert classify_stability(cc, 1.05 * hp.tau_c, crossing) == "unstable", \
        "oscillation preset is not unstable past tau_c"
    target = 2.0 * math.pi / hp.omega_c
    tau = 1.05 * hp.tau_c
    t_end = 50.0 * target
    step = tau / 256.0
    hist = constant_history(state * 1.01)
    traj = integrate(p, tau, hist, t_end=t_end, step=step)
    third = traj.t >= (2.0 / 3.0) * t_end
    crossings = upward_crossings(traj.t[third], traj.component(IY1)[third],
                                 eq.y10)
    assert len(crossings) >= 2, "no sustained oscillation detected"
    period = float(np.mean(np.diff(crossings)))
    print(f"n2 at tau = 1.05 tau_c = {tau:.6f}: measured period "
          f"{period:.4f} vs linear-mode target {target:.4f} "
          f"(tolerance 15%)")
    assert period == pytest.approx(target, rel=0.15)
    assert time.monotonic() - t0 < 120.0


def test_criterion_9_byte_determinism(tmp_path):
    t0 = time.monotonic()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["--paper-case", "n2", "--out", str(out_a)]) == 0
    assert cli.main(["--paper-case", "n2", "--out", str(out_b)]) == 0
    for name in ("report.txt", "trajectory.csv", "phase.csv"):
        assert (out_a / name).exists(), name
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    assert time.monotonic() - t0 < 5.0
