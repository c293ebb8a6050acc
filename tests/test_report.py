"""Report rendering, parsing, and CSV output."""

import math

import numpy as np
import pytest

from hopf_dde import (AnalysisConfig, PRESETS, analyze_params, parse_report,
                      render_report)
from hopf_dde.config import SimSpec
from hopf_dde.report import (fmt_float, write_phase_csv,
                             write_trajectory_csv)
from hopf_dde.simulation import History, Trajectory, integrate


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(11)
    samples = list(rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200))
    samples += [0.0, -0.0, 1.0, math.pi, 2.0 ** -1074, 1e308]
    for x in samples:
        assert float(fmt_float(float(x))) == float(x)


def test_fmt_float_nan():
    assert fmt_float(math.nan) == "nan"


@pytest.fixture(scope="module")
def n2_result():
    cfg = AnalysisConfig(params=PRESETS["n2"],
                         sim=SimSpec(enabled=False))
    return analyze_params(PRESETS["n2"], cfg, label="n2"), cfg


def test_report_structure(n2_result):
    run, cfg = n2_result
    text = render_report([run], cfg)
    assert text.startswith("format = 1\n")
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


def test_parse_report_ignores_malformed_lines():
    kv = parse_report("format = 1\ngarbage line\nx = 2\n")
    assert kv == {"format": "1", "x": "2"}


@pytest.fixture(scope="module")
def short_traj():
    p = PRESETS["n2"]
    y0 = np.array([2.0, 0.7, 11.0, 79.0])
    return integrate(p, 2.0, History.constant(y0, 2.0), t_end=1.0, step=0.25)


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
    write_phase_csv(str(path), short_traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "y1,y2"
    assert len(lines) == 1 + len(short_traj.t)
    y1, y2 = map(float, lines[1].split(","))
    assert y1 == short_traj.states[0, 1]
    assert y2 == short_traj.states[0, 3]


def test_csv_writers_match_fmt_float_bytes(tmp_path):
    # special values, then enough rows to span several write chunks
    rng = np.random.default_rng(5)
    states = np.vstack([
        [[math.nan, math.inf, -0.0, 1e-300],
         [-math.inf, 0.1, 2.0 ** -1074, -1e308],
         [1.0, -2.5, math.pi, 79.96962531280060]],
        rng.standard_normal((2500, 4)) * 10.0 ** rng.integers(-9, 9, (2500, 4)),
    ])
    t = np.concatenate([[0.0, 1e-300, 0.30000000000000004],
                        0.3 + 0.001 * np.arange(2500)])
    traj = Trajectory(t=t, states=states, derivs=np.zeros_like(states),
                      tau=1.0, step=0.5)
    write_trajectory_csv(str(tmp_path / "traj.csv"), traj)
    write_phase_csv(str(tmp_path / "phase.csv"), traj)
    want_traj = "t,x1,y1,x2,y2\n" + "".join(
        ",".join(fmt_float(x) for x in (t, *row)) + "\n"
        for t, row in zip(traj.t, states))
    want_phase = "y1,y2\n" + "".join(
        f"{fmt_float(row[1])},{fmt_float(row[3])}\n" for row in states)
    assert (tmp_path / "traj.csv").read_bytes() == want_traj.encode()
    assert (tmp_path / "phase.csv").read_bytes() == want_phase.encode()
