"""Output checks for one `analyze` run, computed without hopf_dde's numerics.

Two kinds:

- invariants, for any seed: steady-state residuals of each reported
  equilibrium, |Delta(i omega_c, tau_c)| from the reported char.*
  coefficients, and finite CSV rows whose count matches t_end/step;
- frozen outputs, for the default seed: analytic report keys to a
  relative 1e-9, and the final trajectory row, sim.period and
  sim.y1_min/max to a relative 1e-7 (sim.amp_variation is left out: it
  moves about 2 % between integration grids).

The report parser and the CSV file names come from the package; every
check value is computed here.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np
from hopf_dde.cli import _label_slug
from hopf_dde.report import parse_report

ANALYTIC_RTOL = 1e-9
SIM_RTOL = 1e-7
# absolute floor for values that are roundoff-level zeros
_ATOL = 1e-13
_RESIDUAL_RTOL = 1e-8
_ANALYTIC_PARTS = ("equilibrium", "char", "rh_stable", "candidates", "hopf",
                   "nf", "tau_eval", "classification", "error")
_SIM_KEYS = ("period", "y1_min", "y1_max")


def _branches(rep: dict[str, str]):
    """(run prefix, branch prefix, csv suffix) of every reported branch."""
    runs = int(rep["runs.count"])
    for j in range(runs):
        rpre = f"run.{j}."
        label = rep.get(rpre + "label", "")
        suffix = f"_{_label_slug(label)}" if (runs > 1 and label) else ""
        count = int(rep[rpre + "equilibria.count"])
        for i in range(count):
            eq_suffix = f"_eq{i}" if count > 1 else ""
            yield rpre, f"{rpre}eq.{i}.", suffix + eq_suffix


def _hill(y: float, n: int, a: float) -> float:
    t = math.log(a) - n * math.log(y)
    if t > 700.0:
        return math.exp(-t)
    if t < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(t))


def _equilibrium_problems(rep, rpre, bpre) -> list[str]:
    m = {k: float(rep[f"{rpre}model.{k}"])
         for k in ("a1", "a2", "a12", "a21", "b1", "b2", "a", "n")}
    x1, y1, x2, y2 = (float(rep[f"{bpre}equilibrium.{k}"])
                      for k in ("x10", "y10", "x20", "y20"))
    if min(x1, y1, x2, y2) <= 0.0:
        return [f"{bpre}equilibrium is not positive"]
    f = _hill(y1, int(m["n"]), m["a"])
    terms = [(1.0, m["b1"] * x1),
             (x1, (m["a1"] + m["a12"] * y2) * y1),
             (f, m["b2"] * x2),
             (x2, (m["a2"] + m["a21"] * y1) * y2)]
    out = []
    for idx, (src, sink) in enumerate(terms):
        if abs(src - sink) > _RESIDUAL_RTOL * (abs(src) + abs(sink)):
            out.append(f"{bpre}steady-state residual {idx}: {src - sink:.3g}")
    return out


def _delta_problems(rep, bpre) -> list[str]:
    if f"{bpre}hopf.tau_c" not in rep:
        return []
    c = {k: float(rep[f"{bpre}char.{k}"]) for k in ("b", "c", "d", "g", "h")}
    lam = 1j * float(rep[f"{bpre}hopf.omega_c"])
    tau = float(rep[f"{bpre}hopf.tau_c"])
    delta = (lam**3 + c["b"] * lam**2 + c["c"] * lam + c["d"]
             + (c["g"] * lam + c["h"]) * cmath.exp(-2.0 * lam * tau))
    w = abs(lam)
    scale = (w**3 + abs(c["b"]) * w**2 + abs(c["c"]) * w + abs(c["d"])
             + abs(c["g"]) * w + abs(c["h"]))
    if not abs(delta) <= _RESIDUAL_RTOL * scale:
        return [f"{bpre}|Delta(i omega_c, tau_c)| = {abs(delta):.3g}"]
    return []


def _load_csv(path: str, cols: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != cols:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected {cols}")
    return data


def _csv_problems(rep, bpre, outdir, suffix) -> tuple[list[str], np.ndarray | None]:
    tpath = os.path.join(outdir, f"trajectory{suffix}.csv")
    ppath = os.path.join(outdir, f"phase{suffix}.csv")
    try:
        traj = _load_csv(tpath, 5)
        phase = _load_csv(ppath, 2)
    except (OSError, ValueError) as exc:
        return [f"{bpre}csv: {exc}"], None
    out = []
    if not (np.all(np.isfinite(traj)) and np.all(np.isfinite(phase))):
        out.append(f"{bpre}csv has non-finite values")
    t_end, step = float(rep[f"{bpre}sim.t_end"]), float(rep[f"{bpre}sim.step"])
    if abs(len(traj) - (t_end / step + 1.0)) > 1.0:
        out.append(f"{bpre}trajectory has {len(traj)} rows, "
                   f"t_end/step = {t_end / step:.6g}")
    if traj[0, 0] != 0.0 or abs(traj[-1, 0] - t_end) > 1e-9 * t_end:
        out.append(f"{bpre}trajectory does not span [0, t_end]")
    if phase.shape[0] != traj.shape[0] or not np.array_equal(phase, traj[:, [2, 4]]):
        out.append(f"{bpre}phase.csv differs from the trajectory's y1, y2")
    return out, traj[-1]


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + _ATOL


def check_run(outdir: str) -> tuple[list[str], dict]:
    """Invariant problems and the values that frozen.json pins."""
    with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as fh:
        rep = parse_report(fh.read())
    problems = []
    values = {}
    for key, value in rep.items():
        parts = key.split(".")
        if (len(parts) > 2 and parts[0] == "run"
                and (parts[2] in ("equilibria", "error")
                     or (parts[2] == "eq" and parts[4] in _ANALYTIC_PARTS))):
            values[key] = value
    for rpre, bpre, suffix in _branches(rep):
        if f"{bpre}error" in rep:
            continue
        problems += _equilibrium_problems(rep, rpre, bpre)
        problems += _delta_problems(rep, bpre)
        if f"{bpre}sim.t_end" in rep:
            csv_problems, last = _csv_problems(rep, bpre, outdir, suffix)
            problems += csv_problems
            for k in _SIM_KEYS:
                values[f"{bpre}sim.{k}"] = rep[f"{bpre}sim.{k}"]
            if last is not None:
                values[f"{bpre}sim.final_row"] = [float(v) for v in last]
    return problems, values


def compare_frozen(values: dict, frozen: dict) -> list[str]:
    """Differences between this run's pinned values and the frozen ones."""
    out = []
    for key, want in frozen.items():
        got = values.get(key)
        if got is None:
            out.append(f"{key}: missing")
            continue
        rtol = SIM_RTOL if ".sim." in key else ANALYTIC_RTOL
        if isinstance(want, list):
            ok = len(got) == len(want) and all(
                _close(g, w, rtol) for g, w in zip(got, want))
        else:
            try:
                ok = _close(float(got), float(want), rtol)
            except ValueError:
                ok = got == want
        if not ok:
            out.append(f"{key}: got {got}, frozen {want}")
    return out
