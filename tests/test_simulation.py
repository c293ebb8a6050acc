"""Method-of-steps integrator, histories, diagnostics."""

import gc
import math
import warnings

import numpy as np
import pytest

from hopf_dde import (AnalysisConfig, DivergenceError, DomainError, IX1, IX2,
                      IY1, PRESETS, analyze_params, constant_history,
                      find_equilibria, integrate, oscillation_summary,
                      upward_crossings)
from hopf_dde.config import SimSpec

from hopf_dde import simulation

from reference_model import rhs


def _smooth(t):
    return np.array([math.sin(t), math.cos(2.0 * t), math.sin(3.0 * t), 1.0])


def _smooth_positive(t):
    """_smooth with y1 = 2 + cos 2t > 0, inside the interval pass's domain."""
    return np.array([math.sin(t), 2.0 + math.cos(2.0 * t), math.sin(3.0 * t), 1.0])


def _pointwise(fn):
    """A history that calls the scalar fn(t) at each time looked up."""
    return lambda ts: np.array([fn(t) for t in ts.tolist()], dtype=float)


def _dense_value(traj, time):
    """The cubic Hermite interpolant of the stored nodes and derivatives
    at time: dense output, as a reference for the grid's derivatives."""
    t = traj.t
    assert t[0] - 1e-9 <= time <= t[-1] + 1e-9
    j = min(max(int(np.searchsorted(t, time, side="right")) - 1, 0), len(t) - 2)
    h = t[j + 1] - t[j]
    w0, w1, w2, w3 = simulation._hermite_weights((time - t[j]) / h, h)
    return (w0 * traj.states[j] + w1 * traj.derivs[j]
            + w2 * traj.states[j + 1] + w3 * traj.derivs[j + 1])


def test_constant_history_values():
    state = np.array([1.0, 2.0, 3.0, 4.0])
    h = constant_history(state)
    for t in (-5.0, -2.7, -0.001, 0.0):
        np.testing.assert_array_equal(h(np.array([t]))[0], state)


def test_constant_history_is_exact_on_the_first_interval(preset_data):
    # the times integrate looks up on n2's first interval at step tau/256,
    # with the analysis's perturbed equilibrium: every one reads back the
    # state to the bit
    _, eq, _, hp = preset_data["n2"]
    tau, m = hp.tau_c, 256
    state = [c * 1.01 for c in eq.state()]
    ts = np.append(np.arange(2 * m + 1) * (0.5 * tau / m) - tau, 0.0)
    got = constant_history(state)(ts)
    assert np.array_equal(got, np.tile(state, (len(ts), 1)))


@pytest.mark.parametrize("fn", [
    lambda ts: np.ones(len(ts)), lambda ts: np.ones((len(ts) + 1, 4))],
    ids=["flat", "one_row_too_many"])
def test_history_function_of_the_wrong_shape_is_rejected(fn):
    for history in (fn, constant_history(np.ones(3)),
                    _pointwise(lambda t: np.ones(5))):
        with pytest.raises(DomainError, match="history function gave shape"):
            integrate(PRESETS["n2"], 2.0, history, 10.0, 0.1)


def test_integrate_validation_errors():
    p = PRESETS["n2"]
    h = constant_history(np.ones(4))
    with pytest.raises(DomainError):
        integrate(p, -1.0, h, 10.0, 0.1)
    with pytest.raises(DomainError):
        integrate(p, 0.0, h, 10.0, 0.1)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, 10.0, 0.0)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, 10.0, 3.0)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, 10.0, 0.3)
    with pytest.raises(DomainError):
        integrate(p, 2.0, h, -5.0, 0.1)


@pytest.mark.parametrize("arg, value", [
    ("tau", math.nan), ("tau", math.inf), ("step", math.nan),
    ("t_end", math.nan), ("t_end", math.inf)])
def test_integrate_rejects_non_finite_arguments(arg, value):
    kw = {"tau": 2.0, "step": 0.1, "t_end": 10.0, arg: value}
    h = constant_history(np.ones(4))
    with pytest.raises(DomainError):
        integrate(PRESETS["n2"], kw["tau"], h, kw["t_end"], kw["step"])


@pytest.mark.parametrize("m", [1, 64])
def test_history_is_evaluated_once(m):
    # with t_end >= tau, one call at the first interval's 2m + 1 nodes and
    # midpoints and at 0; the partial final step looks up past 0
    calls = []
    history = constant_history([2.0, 0.7, 11.0, 79.0])

    def counting(ts):
        calls.append(len(ts))
        return history(ts)

    integrate(PRESETS["n2"], 2.0, counting, 5.3, 2.0 / m)
    # with t_end < tau, one call at the k = n_full full steps' 2k + 1
    # times, the partial final step's two lookups and 0
    k = {1: 0, 64: 41}[m]
    integrate(PRESETS["n2"], 2.0, counting, 1.3, 2.0 / m)
    assert calls == [2 * m + 2, 2 * k + 4]


def test_large_delay_runs_to_the_end():
    # at tau = 3e7 and 51 steps per interval the first interval's last
    # node time, 2m (step/2) - tau, rounds 3.7e-9 above 0: inside the
    # tolerance 1e-9 max(tau, 1), and clamped to 0 for the history
    p = PRESETS["n4"]
    eq = find_equilibria(p)[0]
    seen = []
    history = constant_history(eq.state())

    def recording(ts):
        seen.append(ts)
        return history(ts)

    traj = integrate(p, 3e7, recording, 3e7, 3e7 / 51)
    assert len(traj.t) == 52 and np.all(np.isfinite(traj.states))
    assert len(seen) == 1 and seen[0].min() == -3e7 and seen[0].max() == 0.0


def test_step_budget_is_checked_before_any_allocation(monkeypatch):
    # 2e8 steps exceed the 1e8 budget: integrate raises before it calls
    # the history or allocates the node arrays
    def unused(*args, **kwargs):
        raise AssertionError("called past the step budget")
    monkeypatch.setattr(simulation.np, "zeros", unused)
    with pytest.raises(DomainError, match="^200000000 steps exceed the "
                                          "100000000 budget$"):
        integrate(PRESETS["n4"], 1.0, unused, 2e8, 1.0)


def test_huge_delay_forms_no_interval_weights():
    # at tau = 1e200 the default 256 steps per interval are 3.9e197 long,
    # so n4's t_end = 2116 is one partial step and no interval takes the
    # numpy path, whose RK4 weights overflow at that step: integrate must
    # not form them, or numpy writes RuntimeWarnings to stderr
    p = PRESETS["n4"]
    history = constant_history([c * 1.01 for c in find_equilibria(p)[0].state()])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(p, 1e200, history, 2116.1147585119415, 1e200 / 256)
    assert traj.t.tolist() == [0.0, 2116.1147585119415]


def test_arrays_that_cannot_be_allocated_are_a_branch_error(monkeypatch):
    # numpy raises MemoryError where a run's arrays do not fit; the run
    # records a DomainError naming the step count and the bytes, as it
    # does the step budget's
    zeros = np.zeros

    def no_room(shape, *args, **kwargs):
        if np.prod(shape) > 10**8:
            raise MemoryError
        return zeros(shape, *args, **kwargs)
    monkeypatch.setattr(simulation.np, "zeros", no_room)
    cfg = AnalysisConfig(tau=1.0, sim=SimSpec(t_end=48e6, step=1.0))
    run = analyze_params(PRESETS["n4"], cfg)
    assert run.branches[0].error == ("DomainError: 48000000 steps need 3456000072 "
                                     "bytes of arrays, more than can be allocated")


def test_first_component_matches_closed_form():
    # x1 decouples: x1' = 1 - b1 x1 has an exact exponential solution
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, 79.0])
    traj = integrate(p, 5.0, constant_history(y0), t_end=10.0, step=0.05)
    exact = 1.0 / p.b1 + (y0[0] - 1.0 / p.b1) * math.exp(-p.b1 * 10.0)
    assert abs(traj.states[-1, IX1] - exact) < 1e-8
    assert abs(_dense_value(traj, 10.0)[IX1] - exact) < 1e-8


def test_equilibrium_is_a_fixed_point():
    # the unstable case amplifies roundoff exponentially, so its horizon
    # must stay short enough for the growth factor to remain modest
    for case, t_end in (("n2", 100.0), ("n164", 40.0)):
        p = PRESETS[case]
        eq = find_equilibria(p)[0]
        traj = integrate(p, 7.0, constant_history(eq.state()), t_end=t_end, step=0.5)
        drift = np.max(np.abs(traj.states - np.asarray(eq.state())[None, :]))
        assert drift < 1e-9


def test_self_convergence_fourth_order():
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    tau = 45.0
    hist = constant_history(np.asarray(eq.state()) * 1.01)

    def endpoint(step):
        return integrate(p, tau, hist, t_end=60.0, step=step).states[-1]

    ref = endpoint(0.0390625)
    e1 = np.linalg.norm(endpoint(0.3125) - ref)
    e2 = np.linalg.norm(endpoint(0.15625) - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_dense_output_matches_nodes_and_is_continuous():
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    traj = integrate(p, 5.0, constant_history(np.asarray(eq.state()) * 1.05),
                     t_end=20.0, step=0.25)
    for j in (0, 7, 40, len(traj.t) - 1):
        np.testing.assert_allclose(_dense_value(traj, traj.t[j]), traj.states[j],
                                   rtol=0.0, atol=1e-12)
    eps = 1e-9
    for tq in (5.0, 10.0, 17.25):
        left = _dense_value(traj, tq - eps)
        right = _dense_value(traj, tq + eps)
        assert np.max(np.abs(left - right)) < 1e-6


def test_final_partial_step():
    p = PRESETS["n2"]
    eq = find_equilibria(p)[0]
    traj = integrate(p, 2.0, constant_history(eq.state()), t_end=5.3, step=0.5)
    assert traj.t[-1] == pytest.approx(5.3, abs=1e-12)
    assert traj.t[-1] - traj.t[-2] == pytest.approx(0.3, abs=1e-12)


def _reference_integrate(p, tau, history, t_end, step):
    """Per-step RK4 on numpy 4-vectors, the arithmetic integrate must keep.

    step is tau/m. A full step's lookups, and every node's derivative
    lookup, go by half-grid index 2(i - m) + 2 frac: an even index is a
    node, an odd one the Hermite midpoint of its two neighbours, and an
    index <= 0 reads the history at (2 i + 2 frac) (step/2) - tau. The
    partial final step looks up by time; after it the last node's delayed
    state is its k4 lookup, at t_end - tau. History times are clamped into
    [-tau, 0], as integrate clamps them.
    """
    m = round(tau / step)
    n_full = int(t_end / step + 1e-9)
    rem = t_end - n_full * step
    if n_full > 0 and rem < 1e-12 * max(t_end, 1.0):
        rem = 0.0
    N = n_full + (1 if rem > 0.0 else 0)
    states, derivs = np.empty((N + 1, 4)), np.empty((N + 1, 4))

    def past(t):
        return history(np.array([min(0.0, max(t, -tau))]))[0]

    states[0] = past(0.0)

    def hermite(j, s):
        return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * states[j]
                + s * (1.0 - s) ** 2 * step * derivs[j]
                + s * s * (3.0 - 2.0 * s) * states[j + 1]
                + s * s * (s - 1.0) * step * derivs[j + 1])

    def delayed(i, frac, h):
        if frac and h != step:
            tq = i * step + frac * h - tau
            if tq <= 0.0:
                return past(tq)
            x = tq / step
            j = int(x)
            s = x - j
            return states[j] if s < 1e-13 else hermite(j, s)
        k = 2 * (i - m) + int(2 * frac)
        if k <= 0:
            return past((2 * i + int(2 * frac)) * (0.5 * step) - tau)
        return hermite(k // 2, 0.5) if k % 2 else states[k // 2]

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


def _assert_same_map(traj, states, derivs):
    """The interval path's contract: the reference's RK4 map to rounding,
    states within 1e-12 and derivatives within 1e-10 of each component's
    largest magnitude."""
    for got, want, tol in ((traj.states, states, 1e-12), (traj.derivs, derivs, 1e-10)):
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= tol * scale)


# the edges of the per-step loop's in-place Hill branch (x > 0 and
# t = ln a - n ln x <= 700), as a constant delayed y1 over the first
# interval, at m = 1 and m = 4 with tau = 1: x = 0, odd n with x < 0, and
# at n = 163 t > 700 (y1 = 1e-3) and, inside the branch, t < -700
# (y1 = 200), where 1/(1 + e^t) rounds to exactly 1
_HILL_EDGES = {f"{name}_m{m}": (p, y1, m) for name, p, y1 in (
    ("zero_y1", PRESETS["n4"], 0.0),
    ("odd_n3_negative_y1", PRESETS["n2"]._replace(n=3), -0.5),
    ("t_below_minus_700", PRESETS["n163"], 200.0),
    ("t_above_700", PRESETS["n163"], 1e-3)) for m in (1, 4)}


@pytest.mark.parametrize("case", ["from_function", "step_equals_tau",
                                  "step_equals_tau_partial_final_step", "m2",
                                  "odd_n_negative_y1", "partial_final_step",
                                  "partial_final_step_in_the_history",
                                  "tiny_t_end", *_HILL_EDGES])
def test_integrate_matches_reference_bit_for_bit(case):
    p = PRESETS["n2"]
    tau, t_end, step = 2.0, 30.0, 0.125
    history = _pointwise(_smooth)
    if case in _HILL_EDGES:
        p, y1, m = _HILL_EDGES[case]
        tau, t_end, step = 1.0, 3.0, 1.0 / m
        history = constant_history(np.array([1.0, y1, 3.0, 20.0]))
    elif case == "step_equals_tau":
        step, t_end = tau, 60.0
    elif case == "step_equals_tau_partial_final_step":
        # the end lookup of a full step is the current node, held in
        # locals; the partial step then looks up by time
        step, t_end = tau, 61.3
    elif case == "m2":
        # a full step's end lookup is node i - 1, a stored node that is not
        # the current one
        step = tau / 2
    elif case == "odd_n_negative_y1":
        # a negative delayed y1 takes the odd branch of the Hill continuation
        p = p._replace(n=3)
        history = constant_history(np.array([1.0, -0.5, 3.0, 20.0]))
    elif case == "partial_final_step":
        t_end = 5.3
    elif case == "partial_final_step_in_the_history":
        # two full steps of 0.5, then one of 0.3 whose midpoint and end
        # lookups, at -0.85 and -0.7, read the history
        t_end, step = 1.3, 0.5
    elif case == "tiny_t_end":
        # no full step: the whole run is one partial step of 1e-13, below
        # the remainder that a run with full steps drops
        t_end = 1e-13
    traj = integrate(p, tau, history, t_end, step)
    states, derivs = _reference_integrate(p, tau, history, t_end, step)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


@pytest.mark.parametrize("m, rows", [(1, 12), (64, 651)])
def test_trajectory_stores_one_contiguous_row_per_component(m, rows):
    # 10 full steps and a partial one at m = 1, 649 and a partial one at
    # m = 64; states and derivs are (N+1, 4) views of one row per
    # component, so each component's samples are contiguous
    traj = integrate(PRESETS["n2"], 2.0, _pointwise(_smooth), 20.3, 2.0 / m)
    for arr in (traj.states, traj.derivs):
        assert arr.shape == (rows, 4)
        for k in range(4):
            assert arr[:, k].flags.c_contiguous


def test_one_step_intervals_match_reference_bit_for_bit(preset_data, monkeypatch):
    # n163 at its critical delay with step = tau: one step per delay
    # interval. Every full step looks up nodes i - 1 and i by index, so a
    # step takes two Hill terms (midpoint and end, the end one also serving
    # the new node's derivative) whatever the rounding of i * step, plus
    # one for node 0's derivative
    p, eq, _, hp = preset_data["n163"]
    tau = step = hp.tau_c
    n_full = 10_000
    history = constant_history(np.asarray(eq.state()) * 1.01)
    t_end = (n_full + 0.5) * step
    lookups = _spy_on_per_step_lookups(monkeypatch)
    traj = integrate(p, tau, history, t_end, step)
    assert len(lookups) == 2 * (n_full + 1) + 1
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


def _spy_on_solver(monkeypatch):
    """Record (i0, i1, solved) for each interval the numpy path is given."""
    calls = []
    real = simulation._IntervalSolver.solve

    def spy(self, i0, i1):
        ok = real(self, i0, i1)
        calls.append((i0, i1, ok))
        return ok

    monkeypatch.setattr(simulation._IntervalSolver, "solve", spy)
    return calls


def _spy_on_per_step_lookups(monkeypatch):
    """Count the per-step path's Hill evaluations, one per lookup: the
    in-place branch's exp, through the math module the loop binds its
    functions from, and the _hill_log calls outside that branch."""
    calls = []
    real = simulation._hill_log

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(t):
            calls.append(t)
            return math.exp(t)

    monkeypatch.setattr(simulation, "_hill_log", spy)
    monkeypatch.setattr(simulation, "math", CountingMath())
    return calls


@pytest.mark.parametrize("case", ["from_function", "odd_n_negative_y1",
                                  "partial_final_step", "ends_mid_interval"])
def test_interval_path_matches_reference_bit_for_bit(case, monkeypatch):
    # 64 steps per delay interval: every interval's full steps take the
    # numpy path, which agrees with the per-step reference to rounding
    p = PRESETS["n2"]
    tau, t_end, step = 2.0, 30.0, 2.0 / 64
    history = _pointwise(_smooth_positive)
    if case == "odd_n_negative_y1":
        p = p._replace(n=3)
        history = constant_history(np.array([1.0, -0.5, 3.0, 20.0]))
    elif case == "partial_final_step":
        t_end = 5.4  # 172.8 steps: 44 full ones in the last interval
    elif case == "ends_mid_interval":
        t_end = 178 * step  # the last interval has 50 of its 64 steps
    assert 44 >= simulation._PASS_MIN_STEPS
    calls = _spy_on_solver(monkeypatch)
    traj = integrate(p, tau, history, t_end, step)
    states, derivs = _reference_integrate(p, tau, history, t_end, step)
    solved = [ok for _, _, ok in calls]
    assert len(solved) == math.ceil(t_end / tau)
    if case == "odd_n_negative_y1":
        # the delayed y1 is negative on the first two intervals: the pass
        # gives them back, and the per-step loop takes them to the bit
        assert solved == [False, False] + [True] * (len(solved) - 2)
        k = 2 * 64 + 1
        assert np.array_equal(traj.states[:k], states[:k])
        assert np.array_equal(traj.derivs[:k], derivs[:k])
    else:
        assert all(solved)
    _assert_same_map(traj, states, derivs)


@pytest.mark.parametrize("case, tau, m, t_end, stretch", [
    ("n4", 12.0, 256, 200.0, 1.0), ("n164", 7.4, 128, 100.0, 1.0),
    ("n163", 0.5, 36, 30.0, 1.0), ("n163", 0.5, 44, 30.0, 1.0),
    ("n4", 3.0, 45, 31.3, 1.0),
    # a step that divides tau only to the accepted 1e-9, taken as tau/m
    ("n4", 2.0, 256, 60.0, 1.0 + 9e-10)])
def test_interval_path_equals_per_step_path(case, tau, m, t_end, stretch, monkeypatch):
    p = PRESETS[case]
    eq = find_equilibria(p)[0]
    history = constant_history(np.asarray(eq.state()) * 1.01)
    step = tau / m * stretch
    fast = integrate(p, tau, history, t_end, step)
    monkeypatch.setattr(simulation, "_PASS_MIN_STEPS", 10**9)
    slow = integrate(p, tau, history, t_end, step)
    _assert_same_map(fast, slow.states, slow.derivs)


@pytest.mark.parametrize("case", ["zero_y1", "odd_n3_negative_y1", "t_above_700"])
def test_interval_outside_the_fast_domain_matches_reference_bit_for_bit(
        case, monkeypatch):
    # _HILL_EDGES's constant delayed y1 at 64 steps per interval: the first
    # interval looks it up throughout, the second at node 0, so the pass
    # gives both back, and the per-step loop's _hill_log takes them to the
    # bit
    p, y1, _ = _HILL_EDGES[f"{case}_m1"]
    tau, m = 1.0, 64
    history = constant_history(np.array([1.0, y1, 3.0, 20.0]))
    calls = _spy_on_solver(monkeypatch)
    traj = integrate(p, tau, history, 2.0 * tau, tau / m)
    assert calls == [(0, m, False), (m, 2 * m, False)]
    states, derivs = _reference_integrate(p, tau, history, 2.0 * tau, tau / m)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


def test_interval_with_underflowing_decay_product_runs_per_step(monkeypatch):
    # y2 = 2e4 makes y1 decay at about 400 per unit time: each step
    # multiplies by rho ~ 0.27, and 512 of them fall below 1e-250, so
    # sigma / P would leave the float range
    p = PRESETS["n2"]
    tau, m = 2.0, 512
    history = constant_history(np.array([2.0, 0.7, 11.0, 2.0e4]))
    calls = _spy_on_solver(monkeypatch)
    lookups = _spy_on_per_step_lookups(monkeypatch)
    traj = integrate(p, tau, history, 2.0 * tau, tau / m)
    assert calls == [(0, m, False), (m, 2 * m, False)]
    assert len(lookups) >= 2 * 2 * m
    _assert_same_map(traj, *_reference_integrate(p, tau, history, 2.0 * tau, tau / m))


def test_stretched_step_is_snapped_to_the_grid(monkeypatch):
    # a step that divides tau only to the accepted 1e-9 is taken as tau/m,
    # so its lookups fall on the grid and the interval path takes them
    p = PRESETS["n4"]
    tau, m = 2.0, 256
    eq = find_equilibria(p)[0]
    history = constant_history(np.asarray(eq.state()) * 1.01)
    calls = _spy_on_solver(monkeypatch)
    traj = integrate(p, tau, history, 3.0 * tau, tau / m * (1.0 + 9e-10))
    assert traj.t[1] == tau / m
    assert calls == [(0, m, True), (m, 2 * m, True), (2 * m, 3 * m, True)]
    want = integrate(p, tau, history, 3.0 * tau, tau / m)
    assert np.array_equal(traj.t, want.t)
    assert np.array_equal(traj.states, want.states)
    assert np.array_equal(traj.derivs, want.derivs)


def test_interval_breaking_the_blowup_bound_reruns_per_step(monkeypatch):
    # y2 = -2e3 makes y1 grow by about e^40 over the first interval, past
    # 1e12 while the decay product stays in range: the numpy path gives
    # the interval back, and the per-step re-run reports the divergence
    # at its step, in the per-step path's words
    p = PRESETS["n2"]
    history = constant_history(np.array([2.0, 0.7, 11.0, -2.0e3]))
    calls = _spy_on_solver(monkeypatch)
    with pytest.raises(DivergenceError) as fast:
        integrate(p, 1.0, history, t_end=50.0, step=1.0 / 64)
    assert calls == [(0, 64, False)]
    monkeypatch.setattr(simulation, "_PASS_MIN_STEPS", 10**9)
    with pytest.raises(DivergenceError) as slow:
        integrate(p, 1.0, history, t_end=50.0, step=1.0 / 64)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).endswith("(step 44)")


def test_partial_final_step_after_a_cut_interval(monkeypatch):
    # t_end falls 128.3 steps into the third interval: its 128 full steps
    # take the numpy path, the final 0.3 step the per-step path
    p = PRESETS["n2"]
    tau, m = 2.0, 256
    step = tau / m
    t_end = (2 * m + 128.3) * step
    history = _pointwise(_smooth_positive)
    calls = _spy_on_solver(monkeypatch)
    lookups = _spy_on_per_step_lookups(monkeypatch)
    traj = integrate(p, tau, history, t_end, step)
    assert calls == [(0, m, True), (m, 2 * m, True), (2 * m, 2 * m + 128, True)]
    assert 1 <= len(lookups) <= 3
    assert len(traj.t) == 2 * m + 130 and traj.t[-1] == t_end
    _assert_same_map(traj, *_reference_integrate(p, tau, history, t_end, step))
    # _smooth's y1 = cos 2t is negative on part of the first interval,
    # which the pass gives back to the per-step loop
    calls.clear()
    integrate(p, tau, _pointwise(_smooth), t_end, step)
    assert calls[0] == (0, m, False)


def test_interval_start_derivatives_are_current():
    # the numpy path writes each node's derivative, and the next
    # interval's Hermite midpoints read them; a stale (unwritten) one at an
    # interval's first node would put that node off the field
    p = PRESETS["n2"]
    tau, m = 2.0, 64
    step = tau / m
    traj = integrate(p, tau, _pointwise(_smooth_positive), 20.0, step)
    for j in range(m, len(traj.t) - 1, m):
        want = rhs(traj.states[j], _dense_value(traj, j * step - tau), p)
        np.testing.assert_allclose(traj.derivs[j], want, rtol=1e-12, atol=1e-14)


def test_interval_path_divergence_matches_per_step_path(monkeypatch):
    # a very negative delayed y2 flips the y1 loss term into growth; the
    # state passes 1e12 on step 90, in the second delay interval's pass
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, -1.0e3])
    calls = _spy_on_interval_pass(monkeypatch)
    with pytest.raises(DivergenceError) as fast:
        integrate(p, 1.0, constant_history(y0), t_end=50.0, step=1.0 / 64)
    assert calls
    monkeypatch.setattr(simulation, "_PASS_MIN_STEPS", 10**9)
    with pytest.raises(DivergenceError) as slow:
        integrate(p, 1.0, constant_history(y0), t_end=50.0, step=1.0 / 64)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).endswith("(step 90)")


@pytest.mark.parametrize("m", [1, 64])
def test_huge_odd_exponent_with_very_negative_delayed_y1(m):
    # (-100)^163 overflows a float; the log-space odd branch gives 1.0. The
    # delayed y1 stays negative, so at m = 64 the interval pass gives every
    # interval back to the per-step loop
    p = PRESETS["n163"]
    tau = 1.0
    history = constant_history(np.array([1.0, -100.0, 3.0, 20.0]))
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
        integrate(p, 2.0, _pointwise(_smooth), 20.0, 2.0 / m)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("step", [0.5, 2.0])
def test_final_node_derivative_after_partial_step(step):
    # the last node sits at t_end, so its derivative needs the delayed
    # state at t_end - tau, not at N*step - tau
    p = PRESETS["n2"]
    tau, t_end = 2.0, 5.3
    traj = integrate(p, tau, _pointwise(_smooth), t_end, step)
    want = rhs(traj.states[-1], _dense_value(traj, t_end - tau), p)
    np.testing.assert_allclose(traj.derivs[-1], want, rtol=0.0, atol=1e-12)


def test_lookup_at_the_front_ignores_unwritten_memory(monkeypatch):
    # at step = tau every full step reads the newest written node, next to
    # the unwritten ones. The node arrays come from np.zeros, so even a
    # read of an unwritten node gives 0, never what the allocator left
    # there; np.empty is poisoned with NaN so that an array allocated with
    # it and read before it is written shows in the result
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, 79.0])
    tau = 0.3
    want = integrate(p, tau, constant_history(y0), 2000 * tau, tau)
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(math.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    got = integrate(p, tau, constant_history(y0), 2000 * tau, tau)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.derivs, want.derivs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_history_is_divergence(bad):
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, bad])
    # non-finite throughout, and only at one of the looked-up times
    for history in (constant_history(y0),
                    _pointwise(lambda t: y0 if t == -0.5 else np.ones(4))):
        with pytest.raises(DivergenceError, match="history holds non-finite values"):
            integrate(p, 1.0, history, t_end=1.0, step=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_history_raises_before_any_warning(bad):
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError):
            integrate(p, 1.0, constant_history(y0), t_end=1.0, step=0.1)


def test_divergence_is_detected():
    # a hugely negative delayed y2 flips the y1 loss term into growth
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, -1.0e6])
    with pytest.raises(DivergenceError):
        integrate(p, 1.0, constant_history(y0), t_end=5.0, step=0.001)


def test_negative_states_are_not_clipped():
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, -5.0, 79.0])
    traj = integrate(p, 2.0, constant_history(y0), t_end=1.0, step=0.1)
    x2 = traj.component(IX2)
    assert x2[0] == -5.0
    assert np.all(x2 < -4.5)
    assert np.all(np.diff(x2) > 0.0)


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


def _mask_amp_variation(ts, vals):
    """oscillation_summary's amp_variation, each cycle's samples selected
    by a full-length mask (ts >= c0) & (ts <= c1)."""
    half = slice(len(ts) // 2, len(ts))
    cr = upward_crossings(ts[half], vals[half], float(np.mean(vals[half])))
    q = max(3, len(cr) * 3 // 4)
    amps = []
    for c0, c1 in zip(cr[q - 1:-1], cr[q:]):
        mask = (ts >= c0) & (ts <= c1)
        if np.count_nonzero(mask) > 2:
            seg = vals[mask]
            amps.append(float(np.max(seg) - np.min(seg)))
    return float((np.max(amps) - np.min(amps)) / np.mean(amps))


@pytest.mark.parametrize("case", ["sine", "n4"])
def test_oscillation_summary_selects_cycles_as_a_mask_does(case, preset_data):
    if case == "sine":
        ts = np.linspace(0.0, 40.0 * math.pi, 4001)
        vals = np.sin(ts) * (1.0 + 0.01 * ts)
    else:
        # n4 just past its critical delay, 10 periods at 256 steps per delay
        p, eq, _, hp = preset_data["n4"]
        tau = 1.05 * hp.tau_c
        history = constant_history(np.asarray(eq.state()) * 1.01)
        traj = integrate(p, tau, history, 20.0 * math.pi / hp.omega_c, tau / 256)
        ts, vals = traj.t, traj.component(IY1)
    got = oscillation_summary(ts, vals)["amp_variation"]
    assert got > 0.0
    assert got == _mask_amp_variation(ts, vals)


def test_oscillation_summary_flat_signal_reports_nan():
    ts = np.linspace(0.0, 10.0, 101)
    out = oscillation_summary(ts, np.ones_like(ts))
    assert math.isnan(out["period"])
    assert out["min"] == 1.0
    assert out["max"] == 1.0
