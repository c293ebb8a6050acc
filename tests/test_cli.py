"""End-to-end command-line behavior and exit codes."""

import gc
import os
import subprocess
import sys
import weakref

import pytest

import hopf_dde
from hopf_dde import (PRESETS, AnalysisConfig, NumericalError, csv_output,
                      load_config, parse_report, pipeline, render_report,
                      run_analysis)
from hopf_dde import cli

FAST_CFG = """
model.a1 = 0.13
model.a2 = 0.13
model.a12 = 0.02
model.a21 = 0.02
model.b1 = 0.8
model.b2 = 0.01
model.a = 4
model.n = 2
tau = 10.0
sim.t_end = 50.0
sim.step = 0.5
"""


def _write_cfg(tmp_path, text=FAST_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_run_writes_all_outputs(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path), "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    kv = parse_report(report)
    assert kv["format"] == "2"
    assert kv["run.0.eq.0.classification"] == "stable"
    assert kv["run.0.eq.0.tau_eval"] == "10"
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x1,y1,x2,y2"
    assert len(traj) == 1 + 101
    phase = (out / "phase.csv").read_text().splitlines()
    assert phase[0] == "y1,y2"


def test_sim_disabled_run_only_writes_report(tmp_path):
    cfg = FAST_CFG + "sim.enabled = false\n"
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "report.txt").exists()
    assert not (out / "trajectory.csv").exists()
    assert not (out / "phase.csv").exists()


def test_paper_case_runs_at_critical_delay(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["--paper-case", "n2", "--out", str(out)])
    assert rc == 0
    kv = parse_report((out / "report.txt").read_text())
    assert kv["run.0.eq.0.classification"] == "at-bifurcation"
    assert float(kv["run.0.eq.0.hopf.tau_c"]) == pytest.approx(
        90.21567177584434, rel=1e-12)
    assert (out / "trajectory.csv").exists()
    assert (out / "phase.csv").exists()


def test_sweep_writes_labeled_outputs(tmp_path):
    cfg = FAST_CFG + "sweep.param = n\nsweep.start = 2\nsweep.stop = 4\nsweep.count = 3\n"
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    kv = parse_report((out / "report.txt").read_text())
    assert kv["runs.count"] == "3"
    assert kv["run.0.label"] == "n=2"
    assert kv["run.2.label"] == "n=4"
    for slug in ("n_2", "n_3", "n_4"):
        assert (out / f"trajectory_{slug}.csv").exists()
        assert (out / f"phase_{slug}.csv").exists()


def test_sweep_points_sharing_ten_digits_write_their_own_csvs(tmp_path):
    # the three a12 values agree to 11 significant digits: their labels
    # take as many more as part them, and so do their CSV names
    cfg = FAST_CFG + ("sweep.param = a12\nsweep.start = 0.01\n"
                      "sweep.stop = 0.0100000000001\nsweep.count = 3\n")
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    kv = parse_report((out / "report.txt").read_text())
    assert kv["runs.count"] == "3"
    labels = [kv[f"run.{j}.label"] for j in range(3)]
    assert len(set(labels)) == 3
    assert len(list(out.glob("trajectory_*.csv"))) == 3
    assert len(list(out.glob("phase_*.csv"))) == 3


A12_SWEEP = FAST_CFG + "sweep.param = a12\nsweep.start = 0.01\nsweep.stop = 0.03\nsweep.count = 3\n"


def _write_after_the_run(cfg, out):
    # the writer cli.main had before it streamed: every run first, then
    # report.txt, then each simulated run's CSVs
    results = run_analysis(cfg)
    os.makedirs(out)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(results, cfg))
    for run in results:
        suffix = f"_{cli._label_slug(run.label)}" if len(results) > 1 and run.label else ""
        for br in run.branches:
            traj = br.sim.trajectory
            ppath = os.path.join(out, f"phase{suffix}.csv")
            csv_output.write_trajectory_csv(
                os.path.join(out, f"trajectory{suffix}.csv"), traj,
                lambda chunks: csv_output.write_phase_csv(ppath, chunks))


@pytest.mark.parametrize("case", ["a12_sweep", "n4"])
def test_streamed_outputs_match_writing_after_the_run(tmp_path, case):
    if case == "n4":
        argv = ["--paper-case", "n4"]
        cfg = AnalysisConfig(params=PRESETS["n4"])
    else:
        argv = ["--config", _write_cfg(tmp_path, A12_SWEEP)]
        cfg = load_config(argv[1])
    assert cli.main(argv + ["--out", str(tmp_path / "streamed")]) == 0
    _write_after_the_run(cfg, str(tmp_path / "after"))
    names = sorted(os.listdir(tmp_path / "after"))
    assert len(names) == (7 if case == "a12_sweep" else 3)
    assert sorted(os.listdir(tmp_path / "streamed")) == names
    for name in names:
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "after" / name).read_bytes()), name


def test_sweep_holds_one_trajectory_at_a_time(tmp_path, monkeypatch):
    # when member k is integrated, every earlier member's arrays are gone
    refs, alive_at_call = [], []
    real = pipeline.integrate

    def spy(*args):
        gc.collect()
        alive_at_call.append([ref() is not None for ref in refs])
        traj = real(*args)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(pipeline, "integrate", spy)
    assert cli.main(["--config", _write_cfg(tmp_path, A12_SWEEP),
                     "--out", str(tmp_path / "out")]) == 0
    assert alive_at_call == [[], [False], [False, False]]


@pytest.mark.parametrize("sweep", [
    "sweep.param = a12\nsweep.start = 0.02\nsweep.stop = 0.02\nsweep.count = 1\n",
    "sweep.param = n\nsweep.start = 2\nsweep.stop = 2.4\nsweep.count = 3\n",
], ids=["count_1", "n_rounds_to_one"])
def test_one_run_sweep_keeps_unsuffixed_names(tmp_path, sweep):
    out = tmp_path / "out"
    assert cli.main(["--config", _write_cfg(tmp_path, FAST_CFG + sweep),
                     "--out", str(out)]) == 0
    assert parse_report((out / "report.txt").read_text())["runs.count"] == "1"
    assert sorted(os.listdir(out)) == ["phase.csv", "report.txt", "trajectory.csv"]


def test_unwritable_member_csv_exits_3(tmp_path, capsys):
    # the second member's trajectory path is a directory; the first
    # member's CSVs are already on disk, report.txt is never written
    out = tmp_path / "out"
    (out / "trajectory_a12_0.02.csv").mkdir(parents=True)
    rc = cli.main(["--config", _write_cfg(tmp_path, A12_SWEEP), "--out", str(out)])
    assert rc == 3
    assert "i/o failure" in capsys.readouterr().err
    assert (out / "trajectory_a12_0.01.csv").is_file()
    assert not (out / "report.txt").exists()


def _run_extreme(tmp_path, **model):
    # FAST_CFG with the given model values, analytic part only
    lines = [line for line in FAST_CFG.splitlines()
             if line.split(" = ")[0].removeprefix("model.") not in model]
    lines += [f"model.{key} = {value}" for key, value in model.items()]
    cfg = "\n".join(lines + ["sim.enabled = false", ""])
    out = tmp_path / "out"
    assert cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    return parse_report((out / "report.txt").read_text())


def test_equilibrium_beyond_float_range_is_a_run_error(tmp_path):
    # y10 is about 1/(a1 b1) = 1e310: no float equilibrium, no inf or NaN
    kv = _run_extreme(tmp_path, a1="1e-300", b1="1e-10")
    assert kv["run.0.equilibria.count"] == "0"
    assert kv["run.0.error"].startswith("DomainError: ")
    assert not any(key.startswith("run.0.eq.") for key in kv)


def test_equilibrium_found_when_a2_b2_underflows(tmp_path):
    # a2*b2 = 1e-400 underflows and so do most polynomial coefficients;
    # the root of g is still found and balances the steady-state equations
    kv = _run_extreme(tmp_path, a2="1e-200", b2="1e-200")
    assert kv["run.0.equilibria.count"] == "1"
    eq = {k: float(kv[f"run.0.eq.0.equilibrium.{k}"])
          for k in ("x10", "y10", "x20", "y20")}
    y = eq["y10"]
    assert 0.0 < y < 1e-99
    assert eq["x20"] == pytest.approx(y**2 / (4.0 + y**2) / 1e-200, rel=1e-14)
    assert eq["y20"] == pytest.approx(eq["x20"] / (1e-200 + 0.02 * y), rel=1e-14)
    assert y * (0.13 + 0.02 * eq["y20"]) == pytest.approx(eq["x10"], rel=1e-12)
    # char.l1 = 3.1e199: the frequency cubic is solved, not an OverflowError
    assert "run.0.eq.0.error" not in kv
    assert kv["run.0.eq.0.candidates.count"] == "0"


def test_equilibrium_near_float_max_is_built(tmp_path):
    # y10 = 1e305: the Hill derivatives there stay finite (they underflow
    # to 0); the characteristic coefficients then overflow, which the
    # branch records as its error instead of reporting inf and nan
    kv = _run_extreme(tmp_path, a1="1e-300", b1="1e-5")
    assert kv["run.0.equilibria.count"] == "1"
    assert float(kv["run.0.eq.0.equilibrium.y10"]) == pytest.approx(9.99e304)
    assert kv["run.0.eq.0.equilibrium.rho1"] == "0"
    assert kv["run.0.eq.0.error"].startswith(
        "DomainError: characteristic coefficients leave the float range")


def test_bad_config_exits_1(tmp_path, capsys):
    bad = _write_cfg(tmp_path, "model.a1 = 0.13\n", name="bad.cfg")
    assert cli.main(["--config", bad]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    # the UnicodeDecodeError from reading it was a traceback
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"tau = 10\n\xff\n")
    assert cli.main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {bad}: not UTF-8 text")
    assert not (tmp_path / "out").exists()


def test_retired_variants_key_exits_1(tmp_path, capsys):
    # the formula toggles are gone; an old config that sets one is rejected
    cfg = FAST_CFG + "variants.f11_undistributed = true\n"
    assert cli.main(["--config", _write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "unknown configuration keys: variants.f11_undistributed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, bad", [
    ("sweep.param = a1\nsweep.start = 0.5\nsweep.stop = 1.5\n",
     "a1 must lie in (0, 1], got 1.5"),
    ("sweep.param = n\nsweep.start = 0\nsweep.stop = 4\n",
     "n must be an integer >= 1, got 0"),
], ids=["a1", "n"])
def test_out_of_domain_sweep_endpoint_exits_1(tmp_path, capsys, sweep, bad):
    # a configuration error, as the same value in the model block is, not
    # a numerical failure part-way through the sweep
    cfg = FAST_CFG + sweep + "sweep.count = 3\n"
    assert cli.main(["--config", _write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: invalid model parameters: {bad}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "tau = inf", "sim.t_end = nan", "sim.t_end = inf", "sim.step = nan",
    "sim.perturbation = nan",
    # no float holds it: math.isfinite raised OverflowError
    pytest.param("model.n = 1" + "0" * 400, id="model.n = 1e400")])
def test_non_finite_value_exits_1(tmp_path, capsys, line):
    # configuration errors, not a traceback or a branch error
    cfg = _write_cfg(tmp_path, line + "\n")
    assert cli.main(["--paper-case", "n4", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"configuration error: {key} must be")
    assert not (tmp_path / "out").exists()


def test_infinite_hill_constant_exits_1(tmp_path, capsys):
    # was a run error (OverflowError) in a report that exited 0
    cfg = _write_cfg(tmp_path, FAST_CFG.replace("model.a = 4", "model.a = inf"))
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "configuration error: model.a must be finite, got inf\n"
    assert not (tmp_path / "out").exists()


def test_k_max_above_its_bound_exits_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "k_max = 100000\n")
    assert cli.main(["--paper-case", "n4", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("configuration error: k_max must be "
                                       "non-negative and at most 10000, got 100000\n")
    assert not (tmp_path / "out").exists()


def test_missing_parameters_exit_1(capsys):
    assert cli.main([]) == 1
    assert "no model parameters" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert cli.main(["--paper-case", "bogus"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_repeated_calls_build_one_parser(tmp_path, monkeypatch, capsys):
    # the parser is built on the first call in a process and reused; a
    # usage error on a later call still exits 1 with argparse's message
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        cfg = _write_cfg(tmp_path, FAST_CFG + "sim.enabled = false\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["--paper-case", "n2", "--bogus"]) == 1
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert ("configuration error: unrecognized arguments: --bogus"
            in capsys.readouterr().err)


def test_bad_worker_count_exits_1(capsys):
    # --workers is gone; passing it is a usage error like any unknown option
    assert cli.main(["--paper-case", "n2", "--workers", "0"]) == 1
    assert ("configuration error: unrecognized arguments: --workers 0"
            in capsys.readouterr().err)


def test_missing_config_file_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["--config", missing]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, monkeypatch, capsys):
    def boom(cfg, on_run=None):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "run_analysis", boom)
    rc = cli.main(["--config", _write_cfg(tmp_path), "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure: synthetic failure" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    cfg = FAST_CFG + "sim.enabled = false\n"
    rc = cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(blocker)])
    assert rc == 3
    assert "i/o failure" in capsys.readouterr().err


def test_debug_logging_goes_to_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOPF_DDE_LOG", "debug")
    cfg = FAST_CFG + "sim.enabled = false\n"
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    assert "report.txt" in capsys.readouterr().err


_SWEEP_2 = "sweep.param = a12\nsweep.start = 0.01\nsweep.stop = 0.03\nsweep.count = 2\n"


@pytest.mark.parametrize("level, loud", [("info", True), ("DEBUG", True),
                                         ("warning", False), ("verbose", False)])
def test_progress_lines(tmp_path, monkeypatch, capsys, level, loud):
    monkeypatch.setenv("HOPF_DDE_LOG", level)
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path, FAST_CFG + _SWEEP_2),
                   "--out", str(out)])
    assert rc == 0
    expected = []
    for label, slug in (("a12=0.01", "a12_0.01"), ("a12=0.03", "a12_0.03")):
        expected += [f"analyzing {label}", "simulating tau=10 t_end=50 step=0.5",
                     f"wrote {out / f'trajectory_{slug}.csv'}, "
                     f"{out / f'phase_{slug}.csv'}"]
    expected.append(f"wrote {out / 'report.txt'}")
    err = capsys.readouterr().err
    assert err == ("".join(f"INFO hopf_dde: {line}\n" for line in expected)
                   if loud else "")


def test_progress_formats_nothing_when_quiet(monkeypatch, capsys):
    monkeypatch.delenv("HOPF_DDE_LOG", raising=False)
    pipeline.progress("%d", "not a number")  # would raise if formatted
    monkeypatch.setenv("HOPF_DDE_LOG", "info")
    with pytest.raises(TypeError):
        pipeline.progress("%d", "not a number")
    assert capsys.readouterr().err == ""


def test_quiet_by_default(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HOPF_DDE_LOG", raising=False)
    cfg = FAST_CFG + "sim.enabled = false\n"
    out = tmp_path / "out"
    rc = cli.main(["--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ""


def _python(code, *args):
    """Run code in a fresh interpreter that imports this hopf_dde."""
    src = os.path.dirname(os.path.dirname(hopf_dde.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


# numpy set to None in sys.modules makes every `import numpy` raise
_CLI_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from hopf_dde import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
def test_analytic_run_needs_no_numpy(tmp_path, sweep):
    text = FAST_CFG + "sim.enabled = false\n"
    if sweep:
        text += "sweep.param = n\nsweep.start = 2\nsweep.stop = 4\nsweep.count = 3\n"
    cfg = _write_cfg(tmp_path, text)
    proc = _python(_CLI_WITHOUT_NUMPY, "--config", cfg, "--out", str(tmp_path / "a"))
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    report = (tmp_path / "b" / "report.txt").read_bytes()
    assert (tmp_path / "a" / "report.txt").read_bytes() == report
    assert report.count(b"nf.C1.re") == (3 if sweep else 1)


def test_cli_import_leaves_numpy_out(tmp_path):
    # dataclasses, and the inspect it imports, were most of the import time;
    # logging, with the traceback it imports, was most of the rest
    cfg = _write_cfg(tmp_path, FAST_CFG + "sim.enabled = false\n")
    heavy = "('dataclasses', 'inspect', 'numpy', 'logging', 'traceback')"
    proc = _python("import os, sys, hopf_dde.cli; "
                   f"print(*(m in sys.modules for m in {heavy})); "
                   "os.environ.pop('HOPF_DDE_LOG', None); "
                   "assert hopf_dde.cli.main(sys.argv[1:]) == 0; "
                   f"print(*(m in sys.modules for m in {heavy})); "
                   "from hopf_dde import integrate, constant_history; "
                   "print('dataclasses' in sys.modules, "
                   "integrate.__module__, constant_history.__module__)",
                   "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 11 + ["hopf_dde.simulation"] * 2
