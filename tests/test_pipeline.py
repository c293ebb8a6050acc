"""Orchestration: per-branch analysis, sweeps, worker fan-out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import (AnalysisConfig, ConfigError, ModelParams, NumericalError,
                      PRESETS, analyze_params, parse_report, render_report,
                      run_analysis)
from hopf_dde import pipeline, stability
from hopf_dde.config import SimSpec, SweepSpec

NO_SIM = AnalysisConfig(sim=SimSpec(enabled=False))


@pytest.mark.parametrize("case", ["n2", "n4", "n163", "n164"])
def test_preset_branch_is_complete(case):
    run = analyze_params(PRESETS[case], NO_SIM, label=case)
    assert run.error is None
    assert len(run.branches) == 1
    br = run.branches[0]
    assert br.error is None
    assert br.cc is not None
    assert br.crossing is not None
    assert br.hopf is not None
    assert br.nf is not None
    assert br.tau_eval == br.hopf.tau_c
    assert br.classification == "at-bifurcation"
    assert br.sim is None


@pytest.mark.parametrize("case", ["n2", "n4", "n163", "n164"])
def test_preset_with_rates_scaled_down(case):
    # all six rates times 10^-e: the degeneracy guards are relative to the
    # terms they test, so no branch fails; n163 and n164 sit near the
    # zero-delay Routh-Hurwitz boundary, and rate scaling is not an exact
    # symmetry, so only n2 and n4 keep their classification
    p0 = PRESETS[case]
    ref = analyze_params(p0, NO_SIM).branches[0]
    for e in range(1, 13):
        p = p0._replace(**{k: getattr(p0, k) * 10.0 ** -e for k in
                           ("a1", "a2", "a12", "a21", "b1", "b2")})
        br = analyze_params(p, NO_SIM).branches[0]
        assert br.error is None, (e, br.error)
        assert br.crossing is not None
        if case in ("n2", "n4"):
            assert (br.nf.direction, br.nf.orbit_stability, br.nf.period_trend,
                    br.classification) == (
                ref.nf.direction, ref.nf.orbit_stability, ref.nf.period_trend,
                ref.classification), e


def test_instability_flag_only_for_rh_failure():
    stable = analyze_params(PRESETS["n2"], NO_SIM).branches[0]
    unstable = analyze_params(PRESETS["n164"], NO_SIM).branches[0]
    assert stable.rh_stable is True
    assert unstable.rh_stable is False
    assert not any("unstable already at zero delay" in f
                   for f in stable.flags)
    assert any("unstable already at zero delay" in f
               for f in unstable.flags)


def test_conflict_flag_wording():
    br = analyze_params(PRESETS["n2"], NO_SIM).branches[0]
    conflict_flags = [f for f in br.flags if "disagree in sign" in f]
    assert len(conflict_flags) == 1
    assert "implicit route gives supercritical" in conflict_flags[0]
    br164 = analyze_params(PRESETS["n164"], NO_SIM).branches[0]
    assert not any("disagree in sign" in f for f in br164.flags)


def test_no_crossings_branch_still_classifies():
    p = ModelParams(a1=0.13, a2=0.13, a12=0.0, a21=0.0,
                    b1=0.8, b2=0.01, a=4.0, n=2)
    cfg = NO_SIM._replace(tau=5.0)
    run = analyze_params(p, cfg)
    br = run.branches[0]
    assert br.crossing is None
    assert br.hopf is None
    assert br.nf is None
    assert br.classification == "stable"
    # and the report renders the sparse branch without error
    text = render_report([run], cfg)
    assert "hopf" not in text.splitlines()[0]
    assert "candidates.count = 0" in text


def test_branch_builds_the_delay_ladder_once(monkeypatch):
    # first_hopf and classify_stability take the crossing hopf_candidates
    # found: the cubic is solved once, and only classify_stability takes
    # the ladder's phase again
    roots, ladders, phases = [], [], []
    root = stability._cubic_positive_root
    ladder, phase = stability.critical_delays, stability._ladder_phase
    monkeypatch.setattr(stability, "_cubic_positive_root",
                        lambda *a: roots.append(a) or root(*a))
    monkeypatch.setattr(stability, "critical_delays",
                        lambda *a: ladders.append(a) or ladder(*a))
    monkeypatch.setattr(stability, "_ladder_phase",
                        lambda *a: phases.append(a) or phase(*a))
    br = analyze_params(PRESETS["n4"], NO_SIM).branches[0]
    assert br.hopf.tau_c == br.crossing[1][0]
    assert br.hopf.omega_c == br.crossing[0]
    assert br.classification == "at-bifurcation"
    assert (len(roots), len(ladders), len(phases)) == (1, 1, 2)


def test_explicit_tau_overrides_critical_delay():
    cfg = NO_SIM._replace(tau=5.0)
    br = analyze_params(PRESETS["n2"], cfg).branches[0]
    assert br.tau_eval == 5.0
    assert br.classification == "stable"


def test_simulation_block_populated():
    cfg = AnalysisConfig(tau=10.0,
                         sim=SimSpec(t_end=60.0, step=0.5, perturbation=0.02))
    br = analyze_params(PRESETS["n2"], cfg).branches[0]
    assert br.sim is not None
    assert br.sim.tau == 10.0
    assert br.sim.t_end == 60.0
    assert br.sim.step == 0.5
    assert br.sim.perturbation == 0.02
    assert br.sim.trajectory.t[-1] == pytest.approx(60.0, abs=1e-12)
    assert br.sim.y1_min < br.sim.y1_max


def test_simulation_without_a_crossing_runs_to_200():
    # with a12 = 0 there is no crossing frequency, so no Hopf period to
    # take the horizon from: the simulation at tau = 5 runs to t = 200
    br = analyze_params(PRESETS["n2"]._replace(a12=0.0),
                        AnalysisConfig(tau=5.0)).branches[0]
    assert br.crossing is None and br.hopf is None
    assert br.sim.t_end == 200.0 and br.sim.step == 5.0 / 256
    assert br.sim.trajectory.t[-1] == 200.0 and len(br.sim.trajectory.t) == 10241


def test_sim_step_snaps_to_divide_tau():
    cfg = AnalysisConfig(tau=10.0, sim=SimSpec(t_end=20.0, step=0.3))
    br = analyze_params(PRESETS["n2"], cfg).branches[0]
    m = round(10.0 / br.sim.step)
    assert m * br.sim.step == pytest.approx(10.0, abs=1e-12)
    assert br.sim.step == pytest.approx(0.3, rel=0.1)


def test_sim_step_above_tau_runs_at_tau():
    # n163's critical delay is about 0.0021: a step of 0.005 is taken as
    # tau itself, one step per delay interval, as the coarse n163 run is
    cfg = AnalysisConfig(sim=SimSpec(t_end=1.0, step=0.005))
    kv = parse_report(render_report([analyze_params(PRESETS["n163"], cfg)], cfg))
    assert kv["run.0.eq.0.sim.step"] == kv["run.0.eq.0.hopf.tau_c"]


def test_sweep_values_dedupe_integer_exponent():
    assert pipeline.sweep_values(SweepSpec("n", 2, 4, 5)) == [2, 3, 4]
    vals = pipeline.sweep_values(SweepSpec("b1", 0.5, 0.9, 5))
    assert vals == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])
    assert pipeline.sweep_values(SweepSpec("b1", 0.5, 0.9, 1)) == [0.5]


def test_sweep_values_keep_each_integer_at_its_first_occurrence():
    # steps of 0.25 round each integer 3 to 5 times in a row (half to even)
    got = pipeline.sweep_values(SweepSpec("n", 2, 9, 29))
    assert got == [2, 3, 4, 5, 6, 7, 8, 9]
    assert all(type(v) is int for v in got)
    grid = [round(2 + 0.25 * i) for i in range(29)]
    assert got == [v for i, v in enumerate(grid) if v not in grid[:i]]
    # a wide grid keeps every integer once, in order
    assert pipeline.sweep_values(SweepSpec("n", 1, 2000, 8000)) == list(range(1, 2001))


def _linspace_bits(start, stop, count):
    return [float(v).hex() for v in np.linspace(start, stop, count)]


#: perfbench's grids: the five n sweeps over 2..158 and the a12 sweep
PERFBENCH_GRIDS = [(2.0 + 32 * g, 30.0 + 32 * g, 8) for g in range(5)] + [
    (0.01, 0.01 + 0.03, 8)]


@pytest.mark.parametrize("start, stop, count", PERFBENCH_GRIDS)
def test_sweep_values_are_np_linspace_on_perfbench_grids(start, stop, count):
    got = pipeline.sweep_values(SweepSpec("a12", start, stop, count))
    assert [v.hex() for v in got] == _linspace_bits(start, stop, count)
    n_grid = pipeline.sweep_values(SweepSpec("n", start, stop, count))
    assert n_grid == list(dict.fromkeys(
        int(round(v)) for v in np.linspace(start, stop, count)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(start=st.floats(-1e6, 1e6),
       width=st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300)),
       count=st.integers(2, 300))
def test_sweep_values_are_np_linspace(start, width, count):
    # a width below count ulps of 0 takes linspace's zero-step branch
    stop = start + width
    got = pipeline.sweep_values(SweepSpec("a12", start, stop, count))
    assert [v.hex() for v in got] == _linspace_bits(start, stop, count)


@pytest.mark.parametrize("start, stop, count, labels", [
    (0.01, 0.03, 3, ["a12=0.01", "a12=0.02", "a12=0.03"]),
    # the last two share 10 significant digits; 0.5 keeps its label
    (0.5, 0.5000000001, 3, ["a12=0.5", "a12=0.50000000005", "a12=0.5000000001"]),
    (0.01, 0.0100000000001, 3,
     ["a12=0.01", "a12=0.01000000000005", "a12=0.0100000000001"]),
    # equal values run once
    (0.02, 0.02, 3, ["a12=0.02"])])
def test_sweep_labels_are_distinct(start, stop, count, labels):
    cfg = AnalysisConfig(params=PRESETS["n2"], sim=SimSpec(enabled=False),
                         sweep=SweepSpec("a12", start, stop, count))
    assert [r.label for r in run_analysis(cfg)] == labels


def test_sweep_runs_in_order():
    cfg = AnalysisConfig(params=PRESETS["n2"], sim=SimSpec(enabled=False),
                         sweep=SweepSpec("n", 2, 4, 3))
    assert [r.label for r in run_analysis(cfg)] == ["n=2", "n=3", "n=4"]


def test_on_run_sees_each_run_before_its_arrays_are_released():
    cfg = AnalysisConfig(params=PRESETS["n2"], tau=10.0,
                         sim=SimSpec(t_end=50.0, step=0.5),
                         sweep=SweepSpec("a12", 0.01, 0.03, 3))
    seen = []

    def on_run(run, runs):
        traj = run.branches[0].sim.trajectory
        seen.append((run.label, runs, len(traj.t)))

    results = run_analysis(cfg, on_run=on_run)
    assert seen == [("a12=0.01", 3, 101), ("a12=0.02", 3, 101), ("a12=0.03", 3, 101)]
    assert [br.sim.trajectory for r in results for br in r.branches] == [None] * 3
    # without a callback the trajectories are returned, and the report
    # is the same either way
    kept = run_analysis(cfg)
    assert all(len(r.branches[0].sim.trajectory.t) == 101 for r in kept)
    assert render_report(kept, cfg) == render_report(results, cfg)


def test_in_code_sweep_outside_the_domain_raises():
    # the ends are checked as a config file's are, before any point runs
    cfg = AnalysisConfig(params=PRESETS["n2"], sim=SimSpec(enabled=False),
                         sweep=SweepSpec("a1", 0.5, 1.5, 3))
    seen = []
    with pytest.raises(ConfigError) as exc:
        run_analysis(cfg, on_run=lambda run, runs: seen.append(run.label))
    assert str(exc.value) == "invalid model parameters: a1 must lie in (0, 1], got 1.5"
    assert seen == []


@pytest.mark.parametrize("over, message", [
    ({"k_max": -1}, "k_max must be non-negative and at most 10000, got -1"),
    ({"k_max": 10001}, "k_max must be non-negative and at most 10000, got 10001"),
    ({"sim": SimSpec(step=-1.0)}, "sim.step must be positive and finite, got -1.0"),
    ({"sim": SimSpec(t_end=math.nan)}, "sim.t_end must be positive and finite, got nan"),
    ({"tau": -1.0}, "tau must be non-negative and finite, got -1.0"),
], ids=["k_max_negative", "k_max_above_bound", "sim_step_negative",
        "sim_t_end_nan", "tau_negative"])
def test_run_analysis_checks_ranges_of_a_config_built_in_code(over, message):
    # the ranges a config file is held to; k_max = -1 had returned the
    # crossing with no delays and no Hopf point, and sim.step = -1 had run
    # at step = tau
    cfg = AnalysisConfig(params=PRESETS["n4"], sim=SimSpec(enabled=False))
    with pytest.raises(ConfigError) as exc:
        run_analysis(cfg._replace(**over))
    assert str(exc.value) == message


def test_run_analysis_requires_params():
    with pytest.raises(ConfigError, match="^configuration has no model parameters$"):
        run_analysis(AnalysisConfig())


def test_branch_error_is_captured(monkeypatch):
    def boom(p, eq, hp):
        raise NumericalError("synthetic reduction failure")

    monkeypatch.setattr(pipeline, "compute_normal_form", boom)
    run = analyze_params(PRESETS["n2"], NO_SIM)
    br = run.branches[0]
    assert br.error == "NumericalError: synthetic reduction failure"
    assert br.nf is None
    # the partial branch still renders
    text = render_report([run], NO_SIM)
    assert "synthetic reduction failure" in text


def test_float_arithmetic_errors_are_captured(monkeypatch):
    # float ** and / raise these rather than a NumericalError
    def overflow(p):
        raise OverflowError("synthetic overflow")

    def zero_division(p, eq, hp):
        raise ZeroDivisionError("synthetic division")

    monkeypatch.setattr(pipeline, "compute_normal_form", zero_division)
    br = analyze_params(PRESETS["n2"], NO_SIM).branches[0]
    assert br.error == "ZeroDivisionError: synthetic division"
    monkeypatch.setattr(pipeline, "find_equilibria", overflow)
    run = analyze_params(PRESETS["n2"], NO_SIM)
    assert run.branches == []
    assert run.error == "OverflowError: synthetic overflow"
