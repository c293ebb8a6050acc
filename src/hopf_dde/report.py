"""Deterministic plain-text report.

The report is flat `key = value` lines in a fixed order. Floats print
with 17 significant digits so parsing the report recovers every value
bit-exactly; complex values split into .re/.im keys. `parse_report`
round-trips the format. csv_output writes the waveforms.
"""

from __future__ import annotations

from .config import AnalysisConfig
from .pipeline import BranchResult, RunResult

_MODEL_FIELDS = ("a1", "a2", "a12", "a21", "b1", "b2", "a", "n")


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _emit(lines: list[str], key: str, value) -> None:
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


def _branch_lines(lines: list[str], pre: str, br: BranchResult) -> None:
    eq = br.eq
    for name in ("x10", "y10", "x20", "y20", "rho1", "rho2", "rho3"):
        _emit(lines, f"{pre}equilibrium.{name}", getattr(eq, name))
    if br.error is not None:
        _emit(lines, f"{pre}error", br.error)
    if br.cc is not None:
        for name in ("b", "c", "d", "g", "h", "l1", "l2", "l3"):
            _emit(lines, f"{pre}char.{name}", getattr(br.cc, name))
    if br.rh_stable is not None:
        _emit(lines, f"{pre}rh_stable", br.rh_stable)
    _emit(lines, f"{pre}candidates.count", len(br.candidates))
    for i, (omega, taus) in enumerate(br.candidates):
        _emit(lines, f"{pre}candidates.{i}.omega", omega)
        _emit(lines, f"{pre}candidates.{i}.tau.count", len(taus))
        for k, t in enumerate(taus):
            _emit(lines, f"{pre}candidates.{i}.tau.{k}", t)
    if br.hopf is not None:
        hp = br.hopf
        _emit(lines, f"{pre}hopf.omega_c", hp.omega_c)
        _emit(lines, f"{pre}hopf.tau_c", hp.tau_c)
        _emit(lines, f"{pre}hopf.dlambda_dtau", hp.dlambda_dtau)
        _emit(lines, f"{pre}hopf.dlambda_dtau_closed", hp.dlambda_dtau_closed)
        _emit(lines, f"{pre}hopf.L1", hp.L1)
        _emit(lines, f"{pre}hopf.L2", hp.L2)
    if br.nf is not None:
        nf = br.nf
        for name in ("g20", "g11", "g02", "g21", "C1"):
            _emit(lines, f"{pre}nf.{name}", getattr(nf, name))
        for name in ("E1", "E2"):
            for i, z in enumerate(getattr(nf, name)):
                _emit(lines, f"{pre}nf.{name}.{i}", z)
        for name in ("mu2", "beta2", "T2", "mu2_implicit", "T2_implicit"):
            _emit(lines, f"{pre}nf.{name}", getattr(nf, name))
        _emit(lines, f"{pre}nf.transversality_conflict", nf.transversality_conflict)
        _emit(lines, f"{pre}nf.direction", nf.direction)
        _emit(lines, f"{pre}nf.orbit_stability", nf.orbit_stability)
        _emit(lines, f"{pre}nf.period_trend", nf.period_trend)
    if br.tau_eval is not None:
        _emit(lines, f"{pre}tau_eval", br.tau_eval)
    if br.classification is not None:
        _emit(lines, f"{pre}classification", br.classification)
    if br.sim is not None:
        s = br.sim
        for name in ("tau", "t_end", "step", "perturbation",
                     "period", "amp_variation", "y1_min", "y1_max"):
            _emit(lines, f"{pre}sim.{name}", getattr(s, name))
    _emit(lines, f"{pre}flags.count", len(br.flags))
    for i, fl in enumerate(br.flags):
        _emit(lines, f"{pre}flags.{i}", fl)


def render_report(results: list[RunResult], cfg: AnalysisConfig) -> str:
    lines: list[str] = ["format = 2"]
    _emit(lines, "runs.count", len(results))
    _emit(lines, "k_max", cfg.k_max)
    for j, run in enumerate(results):
        pre = f"run.{j}."
        if run.label:
            _emit(lines, f"{pre}label", run.label)
        for name in _MODEL_FIELDS:
            _emit(lines, f"{pre}model.{name}", getattr(run.params, name))
        if run.error is not None:
            _emit(lines, f"{pre}error", run.error)
        _emit(lines, f"{pre}equilibria.count", len(run.branches))
        for i, br in enumerate(run.branches):
            _branch_lines(lines, f"{pre}eq.{i}.", br)
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict[str, str]:
    """Inverse of render_report: flat key -> raw string value."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        out[key.strip()] = value
    return out
