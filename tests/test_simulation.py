"""Method-of-steps integrator, histories, reduced flow, diagnostics."""

import dataclasses
import gc
import math
import warnings

import numpy as np
import pytest

from hopf_dde import (DivergenceError, DomainError, History, IX1, IX2, IY1,
                      PRESETS, compute_eigenpair, compute_normal_form,
                      find_equilibria, integrate, make_z_path,
                      oscillation_summary, reconstruct_center_manifold, rhs,
                      upward_crossings)

from hopf_dde import simulation
from reference_values import CASES


def _smooth(t):
    return np.array([math.sin(t), math.cos(2.0 * t), math.sin(3.0 * t), 1.0])


def test_constant_history_values():
    state = np.array([1.0, 2.0, 3.0, 4.0])
    h = History.constant(state, tau=5.0)
    for t in (-5.0, -2.7, -0.001, 0.0):
        np.testing.assert_array_equal(h.value(t), state)


def test_history_rejects_inconsistent_grid():
    states = np.zeros((11, 4))
    with pytest.raises(DomainError):
        History(tau=5.0, step=0.7, states=states, derivs=np.zeros((11, 4)))
    with pytest.raises(DomainError):
        History(tau=5.0, step=0.5, states=states, derivs=np.zeros((3, 4)))


def test_history_from_function_needs_enough_segments():
    with pytest.raises(DomainError):
        History.from_function(_smooth, tau=2.0, segments=3)


def test_history_value_range_check():
    h = History.constant(np.ones(4), tau=1.0)
    with pytest.raises(DomainError):
        h.value(-1.5)
    with pytest.raises(DomainError):
        h.value(0.5)


def test_history_interpolation_fourth_order():
    # halving the sampling step must shrink the interpolation error by
    # about 2^4
    tau = 2.0
    probes = np.linspace(-tau, 0.0, 101)

    def max_err(segments):
        h = History.from_function(_smooth, tau, segments=segments)
        return max(np.max(np.abs(h.value(t) - _smooth(t))) for t in probes)

    ratio = max_err(8) / max_err(16)
    assert 10.0 < ratio < 26.0


def test_integrate_validation_errors():
    p = PRESETS["n2"]
    h = History.constant(np.ones(4), tau=2.0)
    with pytest.raises(DomainError):
        integrate(p, -1.0, h, 10.0, 0.1)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, 10.0, 0.0)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, 10.0, 3.0)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, 10.0, 0.3)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, -5.0, 0.1)
    with pytest.raises(DomainError):
        integrate(p, 4.0, h, 10.0, 0.1)


def test_first_component_matches_closed_form():
    # x1 decouples: x1' = 1 - b1 x1 has an exact exponential solution
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, 79.0])
    traj = integrate(p, 5.0, History.constant(y0, 5.0), t_end=10.0, step=0.05)
    exact = 1.0 / p.b1 + (y0[0] - 1.0 / p.b1) * math.exp(-p.b1 * 10.0)
    assert abs(traj.states[-1, IX1] - exact) < 1e-8
    assert abs(traj.value(10.0)[IX1] - exact) < 1e-8


def test_equilibrium_is_a_fixed_point():
    # the unstable case amplifies roundoff exponentially, so its horizon
    # must stay short enough for the growth factor to remain modest
    for case, t_end in (("n2", 100.0), ("n164", 40.0)):
        p = PRESETS[case]
        eq = find_equilibria(p)[0]
        traj = integrate(p, 7.0, History.constant(eq.state(), 7.0),
                         t_end=t_end, step=0.5)
        drift = np.max(np.abs(traj.states - eq.state()[None, :]))
        assert drift < 1e-9


def test_self_convergence_fourth_order():
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    tau = 45.0
    hist = History.constant(eq.state() * 1.01, tau)

    def endpoint(step):
        return integrate(p, tau, hist, t_end=60.0, step=step).states[-1]

    ref = endpoint(0.0390625)
    e1 = np.linalg.norm(endpoint(0.3125) - ref)
    e2 = np.linalg.norm(endpoint(0.15625) - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_dense_output_matches_nodes_and_is_continuous():
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    traj = integrate(p, 5.0, History.constant(eq.state() * 1.05, 5.0),
                     t_end=20.0, step=0.25)
    for j in (0, 7, 40, len(traj.t) - 1):
        np.testing.assert_allclose(traj.value(traj.t[j]), traj.states[j],
                                   rtol=0.0, atol=1e-12)
    eps = 1e-9
    for tq in (5.0, 10.0, 17.25):
        left = traj.value(tq - eps)
        right = traj.value(tq + eps)
        assert np.max(np.abs(left - right)) < 1e-6


def test_final_partial_step():
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    traj = integrate(p, 2.0, History.constant(eq.state(), 2.0),
                     t_end=5.3, step=0.5)
    assert traj.t[-1] == pytest.approx(5.3, abs=1e-12)
    assert traj.t[-1] - traj.t[-2] == pytest.approx(0.3, abs=1e-12)


def _reference_integrate(p, tau, history, t_end, step):
    """Per-step RK4 on numpy 4-vectors, the arithmetic integrate must keep.

    After a partial final step the last node's delayed state is the last
    k4 lookup, at t_end - tau.
    """
    n_full = int(t_end / step + 1e-9)
    rem = t_end - n_full * step
    if rem < 1e-12 * max(t_end, 1.0):
        rem = 0.0
    N = n_full + (1 if rem > 0.0 else 0)
    states, derivs = np.empty((N + 1, 4)), np.empty((N + 1, 4))
    states[0] = history.value(0.0)

    def delayed(i, frac, h):
        tq = i * step + frac * h - tau
        if tq <= 0.0:
            return history.value(tq)
        x = tq / step
        j = int(x)
        s = x - j
        if s < 1e-13:
            return states[j]
        return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * states[j]
                + s * (1.0 - s) ** 2 * step * derivs[j]
                + s * s * (3.0 - 2.0 * s) * states[j + 1]
                + s * s * (s - 1.0) * step * derivs[j + 1])

    for i in range(N):
        h = step if i < n_full else rem
        y = states[i]
        derivs[i] = k1 = rhs(y, delayed(i, 0.0, h), p)
        dh = delayed(i, 0.5, h)
        k2 = rhs(y + 0.5 * h * k1, dh, p)
        k3 = rhs(y + 0.5 * h * k2, dh, p)
        d1 = delayed(i, 1.0, h)
        k4 = rhs(y + h * k3, d1, p)
        states[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    derivs[N] = rhs(states[N], d1 if rem > 0.0 else delayed(N, 0.0, step), p)
    return states, derivs


@pytest.mark.parametrize("case", ["from_function", "step_equals_tau",
                                  "odd_n_negative_y1", "partial_final_step"])
def test_integrate_matches_reference_bit_for_bit(case):
    p = PRESETS["n2"]
    tau, t_end, step = 2.0, 30.0, 0.125
    history = History.from_function(_smooth, tau, segments=16)
    if case == "step_equals_tau":
        step, t_end = tau, 60.0
    elif case == "odd_n_negative_y1":
        # a negative delayed y1 takes the odd branch of the Hill continuation
        p = dataclasses.replace(p, n=3)
        history = History.constant(np.array([1.0, -0.5, 3.0, 20.0]), tau)
    elif case == "partial_final_step":
        t_end = 5.3
    traj = integrate(p, tau, history, t_end, step)
    states, derivs = _reference_integrate(p, tau, history, t_end, step)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


def _spy_on_interval_pass(monkeypatch):
    """Count the calls of the interval pass's Hill evaluation."""
    calls = []
    real = simulation._hill_log_many

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(simulation, "_hill_log_many", spy)
    return calls


@pytest.mark.parametrize("case", ["from_function", "odd_n_negative_y1",
                                  "partial_final_step", "ends_mid_interval"])
def test_interval_path_matches_reference_bit_for_bit(case, monkeypatch):
    # 64 steps per delay interval: all but each interval's last step take
    # their delayed terms from the numpy pass
    p = PRESETS["n2"]
    tau, t_end, step = 2.0, 30.0, 2.0 / 64
    history = History.from_function(_smooth, tau, segments=16)
    if case == "odd_n_negative_y1":
        p = dataclasses.replace(p, n=3)
        history = History.constant(np.array([1.0, -0.5, 3.0, 20.0]), tau)
    elif case == "partial_final_step":
        t_end = 5.3  # 169.6 steps: 41 full ones in the last pass
    elif case == "ends_mid_interval":
        t_end = 178 * step  # the last interval has 50 of its 64 steps
    assert 64 >= simulation._PASS_MIN_STEPS
    calls = _spy_on_interval_pass(monkeypatch)
    traj = integrate(p, tau, history, t_end, step)
    assert len(calls) == math.ceil(t_end / tau)
    states, derivs = _reference_integrate(p, tau, history, t_end, step)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


@pytest.mark.parametrize("case, tau, m, t_end, stretch", [
    ("n4", 12.0, 256, 200.0, 1.0), ("n164", 7.4, 128, 100.0, 1.0),
    ("n163", 0.5, 36, 30.0, 1.0), ("n4", 3.0, 40, 31.3, 1.0),
    # a step that divides tau only to the accepted 1e-9: each interval's
    # last end lookup then lands just past its first node and weighs in
    # the node after it
    ("n4", 2.0, 256, 60.0, 1.0 + 9e-10)])
def test_interval_path_equals_per_step_path(case, tau, m, t_end, stretch, monkeypatch):
    p = PRESETS[case]
    eq = find_equilibria(p)[0]
    history = History.constant(eq.state() * 1.01, tau)
    step = tau / m * stretch
    fast = integrate(p, tau, history, t_end, step)
    monkeypatch.setattr(simulation, "_PASS_MIN_STEPS", 10**9)
    slow = integrate(p, tau, history, t_end, step)
    assert np.array_equal(fast.states, slow.states)
    assert np.array_equal(fast.derivs, slow.derivs)


def test_interval_start_derivatives_are_current():
    # each interval's last step runs step by step and its midpoint lookup
    # reads the derivative stored at the interval's first node; a stale
    # (unwritten) one would put the node off the field
    p = PRESETS["n2"]
    tau, m = 2.0, 64
    step = tau / m
    traj = integrate(p, tau, History.from_function(_smooth, tau), 20.0, step)
    for j in range(m, len(traj.t) - 1, m):
        want = rhs(traj.states[j], traj.value(j * step - tau), p)
        np.testing.assert_allclose(traj.derivs[j], want, rtol=1e-12, atol=1e-14)


def test_interval_path_divergence_matches_per_step_path(monkeypatch):
    # a very negative delayed y2 flips the y1 loss term into growth; the
    # state passes 1e12 on step 90, in the second delay interval's pass
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, -1.0e3])
    calls = _spy_on_interval_pass(monkeypatch)
    with pytest.raises(DivergenceError) as fast:
        integrate(p, 1.0, History.constant(y0, 1.0), t_end=50.0, step=1.0 / 64)
    assert calls
    monkeypatch.setattr(simulation, "_PASS_MIN_STEPS", 10**9)
    with pytest.raises(DivergenceError) as slow:
        integrate(p, 1.0, History.constant(y0, 1.0), t_end=50.0, step=1.0 / 64)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).endswith("(step 90)")


@pytest.mark.parametrize("m", [1, 64])
def test_huge_odd_exponent_with_very_negative_delayed_y1(m):
    # (-100)^163 overflows a float; the log-space odd branch gives 1.0
    p = PRESETS["n163"]
    tau = 1.0
    history = History.constant(np.array([1.0, -100.0, 3.0, 20.0]), tau)
    traj = integrate(p, tau, history, 3.0, tau / m)
    assert np.all(np.isfinite(traj.states))
    states, derivs = _reference_integrate(p, tau, history, 3.0, tau / m)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


@pytest.mark.parametrize("m", [1, 64])
def test_integrate_leaves_no_reference_cycles(m):
    # a cycle (say, a nested lookup function that calls itself) would keep
    # each run's arrays alive until the cyclic collector runs, which raised
    # the benchmark's peak RSS by a third
    p = PRESETS["n2"]
    gc.collect()
    gc.disable()
    try:
        integrate(p, 2.0, History.from_function(_smooth, 2.0), 20.0, 2.0 / m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_history_values_match_value_bit_for_bit():
    tau = 2.0
    for hist in (History.from_function(_smooth, tau, segments=16),
                 History.constant(np.array([1.0, 2.0, 3.0, 4.0]), tau, segments=7)):
        ts = np.concatenate((np.linspace(-tau, 0.0, 203), -tau + hist.step * np.arange(5),
                             [-tau - 1e-10, 1e-10, -1e-14]))
        got = hist.values(ts)
        for t, row in zip(ts, got):
            assert np.array_equal(row, hist.value(float(t)))
    with pytest.raises(DomainError):
        hist.values(np.array([-1.0, 0.5]))


@pytest.mark.parametrize("step", [0.5, 2.0])
def test_final_node_derivative_after_partial_step(step):
    # the last node sits at t_end, so its derivative needs the delayed
    # state at t_end - tau, not at N*step - tau
    p = PRESETS["n2"]
    tau, t_end = 2.0, 5.3
    traj = integrate(p, tau, History.from_function(_smooth, tau), t_end, step)
    want = rhs(traj.states[-1], traj.value(t_end - tau), p)
    np.testing.assert_allclose(traj.derivs[-1], want, rtol=0.0, atol=1e-12)


def test_lookup_at_the_front_ignores_unwritten_memory(monkeypatch):
    # at step = tau the k4 lookup lands on the newest node, and rounding
    # of t + h - tau can put it just past the 1e-13 shortcut, so the
    # Hermite weights touch the next, unwritten node; what the allocator
    # left there must not reach the trajectory
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, 79.0])
    tau = 0.3
    want = integrate(p, tau, History.constant(y0, tau), 2000 * tau, tau)
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(math.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    got = integrate(p, tau, History.constant(y0, tau), 2000 * tau, tau)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.derivs, want.derivs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_history_is_divergence(bad):
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, bad])
    with pytest.raises(DivergenceError):
        integrate(p, 1.0, History.constant(y0, 1.0), t_end=1.0, step=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_history_raises_before_any_warning(bad):
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError):
            integrate(p, 1.0, History.constant(y0, 1.0), t_end=1.0, step=0.1)


def test_divergence_is_detected():
    # a hugely negative delayed y2 flips the y1 loss term into growth
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, -1.0e6])
    with pytest.raises(DivergenceError):
        integrate(p, 1.0, History.constant(y0, 1.0), t_end=5.0, step=0.001)


def test_negative_states_are_not_clipped():
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, -5.0, 79.0])
    traj = integrate(p, 2.0, History.constant(y0, 2.0), t_end=1.0, step=0.1)
    x2 = traj.component(IX2)
    assert x2[0] == -5.0
    assert np.all(x2 < -4.5)
    assert np.all(np.diff(x2) > 0.0)


def _reduction(case, preset_data):
    p, eq, _, hp = preset_data[case]
    nf = compute_normal_form(p, eq, hp)
    ep = compute_eigenpair(p, eq, hp.omega_c, hp.tau_c)
    return p, eq, hp, nf, ep


def test_zero_reduced_path_reconstructs_the_equilibrium(preset_data):
    _, eq, _, nf, ep = _reduction("n2", preset_data)
    ts, zs = make_z_path(ep.lambda1, nf, 0.0 + 0.0j, t_end=10.0, step=0.1)
    assert np.all(zs == 0.0)
    X = reconstruct_center_manifold(nf, ep, eq, ts, zs)
    np.testing.assert_array_equal(X, np.tile(eq.state(), (len(ts), 1)))


def test_reconstructed_orbit_period_near_linear_frequency(preset_data):
    _, eq, hp, nf, ep = _reduction("n164", preset_data)
    linear_period = 2.0 * math.pi / hp.omega_c
    ts, zs = make_z_path(ep.lambda1, nf, 0.05 + 0.0j,
                         t_end=10.0 * linear_period, step=0.02)
    X = reconstruct_center_manifold(nf, ep, eq, ts, zs)
    crossings = upward_crossings(ts, X[:, IY1], eq.y10)
    assert len(crossings) >= 5
    measured = float(np.mean(np.diff(crossings)))
    assert measured == pytest.approx(linear_period, rel=0.1)


def test_make_z_path_validation():
    with pytest.raises(DomainError):
        make_z_path(0.1j, _dummy_nf(), 0.1, t_end=-1.0, step=0.1)
    with pytest.raises(DomainError):
        make_z_path(0.1j, _dummy_nf(), 0.1, t_end=1.0, step=0.0)


def _dummy_nf():
    from hopf_dde.normal_form import NormalForm
    zeros = np.zeros(4, dtype=complex)
    return NormalForm(
        g20=0.0j, g11=0.0j, g02=0.0j, g21=0.0j, E1=zeros, E2=zeros,
        C1=-1.0 + 0.0j, mu2=1.0, beta2=-2.0, T2=0.0,
        mu2_implicit=1.0, T2_implicit=0.0,
        dlambda_dtau=1.0 + 0.0j, dlambda_dtau_implicit=1.0 + 0.0j,
        transversality_conflict=False, direction="supercritical",
        orbit_stability="stable", period_trend="decreasing")


def test_reduced_flow_divergence_guard():
    nf = _dummy_nf()
    with pytest.raises(DivergenceError):
        make_z_path(5.0 + 0.0j, nf, 1.0 + 0.0j, t_end=50.0, step=0.5)


def test_upward_crossings_on_sine():
    ts = np.linspace(0.0, 6.0 * math.pi, 601)
    vals = np.sin(ts)
    crossings = upward_crossings(ts, vals, level=0.25)
    assert len(crossings) == 3
    first = math.asin(0.25)
    for k, got in enumerate(crossings):
        assert got == pytest.approx(first + 2.0 * math.pi * k, abs=2e-3)


def test_oscillation_summary_on_sine():
    ts = np.linspace(0.0, 40.0 * math.pi, 4001)
    vals = np.sin(ts)
    out = oscillation_summary(ts, vals)
    assert out["period"] == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert out["amp_variation"] < 0.01
    assert out["min"] == pytest.approx(-1.0, abs=1e-3)
    assert out["max"] == pytest.approx(1.0, abs=1e-3)


def test_oscillation_summary_flat_signal_reports_nan():
    ts = np.linspace(0.0, 10.0, 101)
    out = oscillation_summary(ts, np.ones_like(ts))
    assert math.isnan(out["period"])
    assert out["min"] == 1.0
    assert out["max"] == 1.0
