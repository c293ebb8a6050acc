"""Report rendering, parsing, and CSV output."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hopf_dde import (AnalysisConfig, ModelParams, PRESETS, analyze_params,
                      parse_report, render_report, run_analysis)
from hopf_dde.config import SimSpec, SweepSpec
from hopf_dde import csv_output
from hopf_dde.csv_output import (_csv_rows, _format_values, write_phase_csv,
                                 write_trajectory_csv)
from hopf_dde.report import fmt_float
from hopf_dde.simulation import Trajectory, constant_history, integrate


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(11)
    samples = list(rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200))
    samples += [0.0, -0.0, 1.0, math.pi, 2.0 ** -1074, 1e308]
    for x in samples:
        assert float(fmt_float(float(x))) == float(x)


def test_fmt_float_nan():
    assert fmt_float(math.nan) == "nan"
    assert fmt_float(-math.nan) == "nan"
    assert fmt_float(float("-nan")) == "nan"


@pytest.fixture(scope="module")
def n2_result():
    cfg = AnalysisConfig(params=PRESETS["n2"],
                         sim=SimSpec(enabled=False))
    return analyze_params(PRESETS["n2"], cfg, label="n2"), cfg


def test_report_structure(n2_result):
    run, cfg = n2_result
    text = render_report([run], cfg)
    assert text.startswith("format = 2\n")
    assert text.endswith("\n")
    kv = parse_report(text)
    assert kv["runs.count"] == "1"
    assert kv["run.0.label"] == "n2"
    assert kv["run.0.model.n"] == "2"
    assert kv["run.0.equilibria.count"] == "1"
    assert kv["run.0.eq.0.rh_stable"] == "true"
    assert kv["run.0.eq.0.classification"] in ("stable", "unstable",
                                               "at-bifurcation")
    assert "run.0.eq.0.hopf.omega_c" in kv
    assert "run.0.eq.0.nf.mu2" in kv
    assert "run.0.eq.0.nf.transversality_conflict" in kv


def test_report_values_round_trip(n2_result):
    run, cfg = n2_result
    kv = parse_report(render_report([run], cfg))
    br = run.branches[0]
    assert float(kv["run.0.eq.0.equilibrium.y10"]) == br.eq.y10
    assert float(kv["run.0.eq.0.hopf.tau_c"]) == br.hopf.tau_c
    assert float(kv["run.0.eq.0.nf.C1.re"]) == br.nf.C1.real
    assert float(kv["run.0.eq.0.nf.C1.im"]) == br.nf.C1.imag
    assert float(kv["run.0.eq.0.nf.mu2"]) == br.nf.mu2


def test_report_is_deterministic(n2_result):
    run, cfg = n2_result
    assert render_report([run], cfg) == render_report([run], cfg)


def _emit(lines, key, value):
    # the renderer before direct formatting: one type dispatch per value
    if isinstance(value, bool):
        lines.append(f"{key} = {'true' if value else 'false'}")
    elif isinstance(value, int):
        lines.append(f"{key} = {value}")
    elif isinstance(value, float):
        lines.append(f"{key} = {fmt_float(value)}")
    elif isinstance(value, complex):
        lines.append(f"{key}.re = {fmt_float(value.real)}")
        lines.append(f"{key}.im = {fmt_float(value.imag)}")
    else:
        lines.append(f"{key} = {value}")


def _reference_branch_lines(lines, pre, br):
    for name in ("x10", "y10", "x20", "y20", "rho1", "rho2", "rho3"):
        _emit(lines, f"{pre}equilibrium.{name}", getattr(br.eq, name))
    if br.error is not None:
        _emit(lines, f"{pre}error", br.error)
    if br.cc is not None:
        for name in ("b", "c", "d", "g", "h", "l1", "l2", "l3"):
            _emit(lines, f"{pre}char.{name}", getattr(br.cc, name))
    if br.rh_stable is not None:
        _emit(lines, f"{pre}rh_stable", br.rh_stable)
    candidates = [] if br.crossing is None else [br.crossing]
    _emit(lines, f"{pre}candidates.count", len(candidates))
    for i, (omega, taus) in enumerate(candidates):
        _emit(lines, f"{pre}candidates.{i}.omega", omega)
        _emit(lines, f"{pre}candidates.{i}.tau.count", len(taus))
        for k, t in enumerate(taus):
            _emit(lines, f"{pre}candidates.{i}.tau.{k}", t)
    if br.hopf is not None:
        for name in ("omega_c", "tau_c", "dlambda_dtau", "dlambda_dtau_closed",
                     "L1", "L2"):
            _emit(lines, f"{pre}hopf.{name}", getattr(br.hopf, name))
    if br.nf is not None:
        nf = br.nf
        for name in ("g20", "g11", "g02", "g21", "C1"):
            _emit(lines, f"{pre}nf.{name}", getattr(nf, name))
        for name in ("E1", "E2"):
            for i, z in enumerate(getattr(nf, name)):
                _emit(lines, f"{pre}nf.{name}.{i}", z)
        for name in ("mu2", "beta2", "T2", "mu2_implicit", "T2_implicit",
                     "transversality_conflict", "direction", "orbit_stability",
                     "period_trend"):
            _emit(lines, f"{pre}nf.{name}", getattr(nf, name))
    if br.tau_eval is not None:
        _emit(lines, f"{pre}tau_eval", br.tau_eval)
    if br.classification is not None:
        _emit(lines, f"{pre}classification", br.classification)
    if br.sim is not None:
        for name in ("tau", "t_end", "step", "perturbation",
                     "period", "amp_variation", "y1_min", "y1_max"):
            _emit(lines, f"{pre}sim.{name}", getattr(br.sim, name))
    _emit(lines, f"{pre}flags.count", len(br.flags))
    for i, fl in enumerate(br.flags):
        _emit(lines, f"{pre}flags.{i}", fl)


def _reference_render(results, cfg):
    lines = ["format = 2"]
    _emit(lines, "runs.count", len(results))
    _emit(lines, "k_max", cfg.k_max)
    for j, run in enumerate(results):
        pre = f"run.{j}."
        if run.label:
            _emit(lines, f"{pre}label", run.label)
        for name in ("a1", "a2", "a12", "a21", "b1", "b2", "a", "n"):
            _emit(lines, f"{pre}model.{name}", getattr(run.params, name))
        if run.error is not None:
            _emit(lines, f"{pre}error", run.error)
        _emit(lines, f"{pre}equilibria.count", len(run.branches))
        for i, br in enumerate(run.branches):
            _reference_branch_lines(lines, f"{pre}eq.{i}.", br)
    return "\n".join(lines) + "\n"


_ANALYTIC = SimSpec(enabled=False)


def _preset_runs():
    cfg = AnalysisConfig(params=PRESETS["n2"], sim=_ANALYTIC)
    return [analyze_params(p, cfg, label=name) for name, p in PRESETS.items()], cfg


def _n_sweep():
    cfg = AnalysisConfig(params=PRESETS["n4"], sim=_ANALYTIC,
                         sweep=SweepSpec(param="n", start=2, stop=30, count=8))
    return run_analysis(cfg), cfg


def _branch_and_run_errors():
    # a negative tau_eval fails the branch after its normal form; y10 above
    # the float range fails the run before any branch
    cfg = AnalysisConfig(params=PRESETS["n4"], tau=-1.0, sim=_ANALYTIC)
    huge = ModelParams(a1=1e-300, a2=0.13, a12=0.02, a21=0.02, b1=1e-10,
                       b2=0.01, a=4.0, n=4)
    runs = [analyze_params(PRESETS["n4"], cfg), analyze_params(huge, cfg)]
    assert runs[0].branches[0].error.startswith("DomainError: ")
    assert runs[0].branches[0].nf is not None
    assert runs[1].error is not None
    return runs, cfg


def _simulating_run():
    cfg = AnalysisConfig(params=PRESETS["n2"], tau=10.0,
                         sim=SimSpec(t_end=50.0, step=0.5))
    return [analyze_params(PRESETS["n2"], cfg, label="n2")], cfg


def _no_crossing_run():
    # n2's rates with a12 = 0.001: l3 > 0, so the frequency cubic has no
    # positive root, and the given delay is classified without a crossing
    p = ModelParams(a1=0.13, a2=0.13, a12=0.001, a21=0.02, b1=0.8,
                    b2=0.01, a=4.0, n=2)
    cfg = AnalysisConfig(params=p, tau=10.0, sim=_ANALYTIC)
    return [analyze_params(p, cfg)], cfg


@pytest.mark.parametrize("make", [_preset_runs, _n_sweep, _branch_and_run_errors,
                                  _simulating_run, _no_crossing_run])
def test_render_matches_the_type_dispatch_reference(make):
    results, cfg = make()
    assert render_report(results, cfg) == _reference_render(results, cfg)


def test_no_crossing_report():
    results, cfg = _no_crossing_run()
    kv = parse_report(render_report(results, cfg))
    assert float(kv["run.0.eq.0.char.l3"]) == pytest.approx(6.7591440898401853e-07,
                                                            rel=1e-12)
    assert kv["run.0.eq.0.candidates.count"] == "0"
    assert kv["run.0.eq.0.tau_eval"] == "10"
    assert kv["run.0.eq.0.classification"] == "stable"
    assert not [k for k in kv if k.startswith(("run.0.eq.0.candidates.0.",
                                               "run.0.eq.0.hopf.",
                                               "run.0.eq.0.nf."))]


def test_parse_report_ignores_malformed_lines():
    kv = parse_report("format = 1\ngarbage line\nx = 2\n")
    assert kv == {"format": "1", "x": "2"}


@pytest.fixture(scope="module")
def short_traj():
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, 79.0])
    return integrate(p, 2.0, constant_history(y0), t_end=1.0, step=0.25)


def _write_both(tpath, ppath, traj):
    """Both CSVs, phase.csv from the trajectory writer's chunks, as cli
    writes them."""
    write_trajectory_csv(str(tpath), traj,
                         lambda chunks: write_phase_csv(str(ppath), chunks))


def test_trajectory_csv(tmp_path, short_traj):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), short_traj)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "t,x1,y1,x2,y2"
    assert len(lines) == 1 + len(short_traj.t)
    cells = lines[3].split(",")
    assert len(cells) == 5
    assert float(cells[0]) == short_traj.t[2]
    for k, val in enumerate(short_traj.states[2]):
        assert float(cells[k + 1]) == val


def test_phase_csv(tmp_path, short_traj):
    path = tmp_path / "phase.csv"
    _write_both(tmp_path / "traj.csv", path, short_traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "y1,y2"
    assert len(lines) == 1 + len(short_traj.t)
    y1, y2 = map(float, lines[1].split(","))
    assert y1 == short_traj.states[0, 1]
    assert y2 == short_traj.states[0, 3]


def _fmt_float_csvs(traj):
    """trajectory.csv and phase.csv of `traj` as `fmt_float` writes them."""
    want_traj = "t,x1,y1,x2,y2\n" + "".join(
        ",".join(fmt_float(x) for x in (t, *row)) + "\n"
        for t, row in zip(traj.t, traj.states))
    want_phase = "y1,y2\n" + "".join(
        f"{fmt_float(row[1])},{fmt_float(row[3])}\n" for row in traj.states)
    return want_traj.encode(), want_phase.encode()


def _special_waveform():
    """Special values, then enough rows to span several write chunks."""
    rng = np.random.default_rng(5)
    states = np.vstack([
        [[math.nan, math.inf, -0.0, 1e-300],
         [-math.inf, 0.1, 2.0 ** -1074, -1e308],
         [1.0, -2.5, math.pi, 79.96962531280060]],
        rng.standard_normal((2500, 4)) * 10.0 ** rng.integers(-9, 9, (2500, 4)),
    ])
    t = np.concatenate([[0.0, 1e-300, 0.30000000000000004],
                        0.3 + 0.001 * np.arange(2500)])
    traj = Trajectory(t=t, states=states, derivs=np.zeros_like(states))
    return (traj, *_fmt_float_csvs(traj))


def _tiny_protein_waveform():
    """x2 and y2 below 1e-4 on every row, over three full write chunks
    and a partial fourth: each line of both files has a fallback value."""
    nrows = 3 * (csv_output._CSV_CHUNK_VALUES // 5) + 100
    rng = np.random.default_rng(6)
    states = np.column_stack([
        rng.uniform(0.1, 2.0, nrows), rng.uniform(1.0, 3.0, nrows),
        rng.uniform(1e-6, 9e-5, nrows), -rng.uniform(1e-7, 9e-5, nrows)])
    traj = Trajectory(t=0.25 * np.arange(nrows), states=states,
                      derivs=np.zeros_like(states))
    return (traj, *_fmt_float_csvs(traj))


def test_csv_writers_match_fmt_float_bytes(tmp_path):
    for waveform in (_special_waveform, _tiny_protein_waveform):
        traj, want_traj, want_phase = waveform()
        write_trajectory_csv(str(tmp_path / "alone.csv"), traj)
        _write_both(tmp_path / "traj.csv", tmp_path / "phase.csv", traj)
        assert (tmp_path / "alone.csv").read_bytes() == want_traj
        assert (tmp_path / "traj.csv").read_bytes() == want_traj
        assert (tmp_path / "phase.csv").read_bytes() == want_phase


def test_phase_csv_reuses_the_trajectory_text(tmp_path, monkeypatch):
    # written from the trajectory writer's chunks, phase.csv has
    # fmt_float's bytes, and its y1, y2 are neither formatted nor masked
    # a second time
    traj, want_traj, want_phase = _special_waveform()
    formatted, masked = [], []
    real_format, real_mask = csv_output._format_rows, csv_output._mask
    monkeypatch.setattr(csv_output, "_format_rows",
                        lambda v, rows: formatted.append(len(v))
                        or real_format(v, rows))
    monkeypatch.setattr(csv_output, "_mask",
                        lambda rows, mask_row, out: masked.append(len(rows))
                        or real_mask(rows, mask_row, out))
    _write_both(tmp_path / "traj.csv", tmp_path / "phase.csv", traj)
    assert (tmp_path / "traj.csv").read_bytes() == want_traj
    assert (tmp_path / "phase.csv").read_bytes() == want_phase
    assert sum(formatted) == sum(masked) == 5 * len(traj.t)
    assert len(formatted) > 1


def _ties(rng):
    """Doubles whose 17-digit decimal expansion ends in an exact 5.

    x = j / 2^(17 - X) with j odd gives x 10^(16 - X) = j 5^(16 - X) / 2;
    j < 2^53 keeps x a double.
    """
    out = []
    for x_exp in range(-4, 16):
        scale = 2.0 ** (17 - x_exp)
        top = min(int(10.0 ** (x_exp + 1) * scale), 2 ** 53)
        j = rng.integers(int(10.0 ** x_exp * scale) + 1, top, 200) | 1
        out += [float(k) / scale for k in j.tolist()]
    for x in out:
        x_exp = math.floor(math.log10(x))
        assert (Fraction(x) * 10 ** (16 - x_exp)).denominator == 2, x
    return np.array(out)


def _kernel_cases(seed):
    """About 350 k values: fuzz, decades, 10^k's neighbours, ties, specials."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, 160_000, dtype=np.uint64)
    cases = [bits.view(np.float64)]
    for k in range(-6, 18):
        decade = rng.uniform(10.0 ** k, 10.0 ** (k + 1), 7000)
        cases.append(decade * rng.choice([-1.0, 1.0], len(decade)))
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    near = [powers]
    lo = hi = powers
    for _ in range(64):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        near += [lo, hi]
    cases += [np.concatenate(near), -np.concatenate(near)]
    ties = _ties(rng)
    cases += [ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1e300)]
    cases.append(np.array([
        9.9999999999999999e-5, 99999999999999999.0, 0.99999999999999999,
        np.nextafter(1e17, 0.0), np.nextafter(1e-4, 0.0), 0.0, -0.0,
        math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
        2.2250738585072009e-308, 2.2250738585072014e-308, 1e308, -1e308,
        1.7976931348623157e308, 1.0, 0.5, 1e16, 12345678901234567.0]))
    return np.concatenate(cases)


@pytest.mark.parametrize("ncols", [1, 2, 5])
def test_format_values_matches_percent_format(ncols):
    # three seeds of about 350 k values each: over 1 M values in all
    values = _kernel_cases(ncols)
    values = values[:len(values) - len(values) % ncols]
    nrows = 4000 // ncols
    rows = _csv_rows(ncols, nrows)
    line = ",".join(["%.17g"] * ncols) + "\n"
    for i in range(0, len(values), nrows * ncols):
        chunk = values[i:i + nrows * ncols]
        want = (line * (len(chunk) // ncols)) % tuple(chunk.tolist())
        assert _format_values(chunk, rows[:len(chunk)]) == want.encode()


def test_format_values_falls_back_rarely(monkeypatch):
    # the fast path, not the per-value fallback, formats a waveform
    fallbacks = []
    monkeypatch.setattr(csv_output, "fmt_float",
                        lambda x: fallbacks.append(x) or fmt_float(x))
    rng = np.random.default_rng(3)
    values = (rng.standard_normal((4000, 5)) * [1.0, 0.1, 1.0, 10.0, 80.0]
              + [1000.0, 0.7, 2.0, 11.0, 79.0]).ravel()
    values[0] = 0.0
    text = _format_values(values, _csv_rows(5, 4000))
    assert text == (("%.17g,%.17g,%.17g,%.17g,%.17g\n" * 4000)
                    % tuple(values.tolist())).encode()
    assert 1 <= len(fallbacks) <= 10


def _traced_peak(path, rows):
    rng = np.random.default_rng(7)
    states = rng.standard_normal((rows, 4)) * 10.0 + 50.0
    traj = Trajectory(t=0.005 * np.arange(rows), states=states, derivs=states)
    tracemalloc.start()
    try:
        write_trajectory_csv(path, traj)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_is_bounded(tmp_path):
    # the writer works in chunks: ten times the rows, about the same peak
    path = str(tmp_path / "traj.csv")
    small = _traced_peak(path, 20_000)
    large = _traced_peak(path, 200_000)
    assert large < 3 * 2 ** 20
    assert large < 1.2 * small
