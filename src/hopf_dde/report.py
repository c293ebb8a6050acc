"""Deterministic plain-text report.

The report is flat `key = value` lines in a fixed order. Floats print
with 17 significant digits so parsing the report recovers every value
bit-exactly; complex values split into .re/.im keys. `parse_report`
round-trips the format. csv_output writes the waveforms.
"""

from __future__ import annotations

from .config import AnalysisConfig
from .pipeline import BranchResult, RunResult

_EQ_FIELDS = ("x10", "y10", "x20", "y20", "rho1", "rho2", "rho3")
_CHAR_FIELDS = ("b", "c", "d", "g", "h", "l1", "l2", "l3")
_NF_COMPLEX = ("g20", "g11", "g02", "g21", "C1")
_NF_REAL = ("mu2", "beta2", "T2", "mu2_implicit", "T2_implicit")
_SIM_FIELDS = ("tau", "t_end", "step", "perturbation",
               "period", "amp_variation", "y1_min", "y1_max")


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _complex(key: str, z: complex) -> str:
    return f"{key}.re = {z.real:.17g}\n{key}.im = {z.imag:.17g}"


def _branch_lines(lines: list[str], pre: str, br: BranchResult) -> None:
    lines += [f"{pre}equilibrium.{k} = {getattr(br.eq, k):.17g}" for k in _EQ_FIELDS]
    if br.error is not None:
        lines.append(f"{pre}error = {br.error}")
    if br.cc is not None:
        lines += [f"{pre}char.{k} = {getattr(br.cc, k):.17g}" for k in _CHAR_FIELDS]
    if br.rh_stable is not None:
        lines.append(f"{pre}rh_stable = {_bool(br.rh_stable)}")
    lines.append(f"{pre}candidates.count = {int(br.crossing is not None)}")
    if br.crossing is not None:
        (omega, taus), c = br.crossing, f"{pre}candidates.0."
        lines += [f"{c}omega = {omega:.17g}", f"{c}tau.count = {len(taus)}"]
        lines += [f"{c}tau.{k} = {t:.17g}" for k, t in enumerate(taus)]
    if br.hopf is not None:
        hp, h = br.hopf, f"{pre}hopf."
        lines += [f"{h}omega_c = {hp.omega_c:.17g}", f"{h}tau_c = {hp.tau_c:.17g}",
                  _complex(f"{h}dlambda_dtau", hp.dlambda_dtau),
                  _complex(f"{h}dlambda_dtau_closed", hp.dlambda_dtau_closed),
                  f"{h}L1 = {hp.L1:.17g}", f"{h}L2 = {hp.L2:.17g}"]
    if br.nf is not None:
        nf, f = br.nf, f"{pre}nf."
        lines += [_complex(f"{f}{k}", getattr(nf, k)) for k in _NF_COMPLEX]
        lines += [_complex(f"{f}E1.{i}", z) for i, z in enumerate(nf.E1)]
        lines += [_complex(f"{f}E2.{i}", z) for i, z in enumerate(nf.E2)]
        lines += [f"{f}{k} = {getattr(nf, k):.17g}" for k in _NF_REAL]
        lines += [f"{f}transversality_conflict = {_bool(nf.transversality_conflict)}",
                  f"{f}direction = {nf.direction}",
                  f"{f}orbit_stability = {nf.orbit_stability}",
                  f"{f}period_trend = {nf.period_trend}"]
    if br.tau_eval is not None:
        lines.append(f"{pre}tau_eval = {br.tau_eval:.17g}")
    if br.classification is not None:
        lines.append(f"{pre}classification = {br.classification}")
    if br.sim is not None:
        lines += [f"{pre}sim.{k} = {getattr(br.sim, k):.17g}" for k in _SIM_FIELDS]
    lines.append(f"{pre}flags.count = {len(br.flags)}")
    lines += [f"{pre}flags.{i} = {fl}" for i, fl in enumerate(br.flags)]


def render_report(results: list[RunResult], cfg: AnalysisConfig) -> str:
    lines = ["format = 2", f"runs.count = {len(results)}", f"k_max = {cfg.k_max}"]
    for j, run in enumerate(results):
        pre = f"run.{j}."
        if run.label:
            lines.append(f"{pre}label = {run.label}")
        p = run.params
        lines += [f"{pre}model.{k} = {v:.17g}" for k, v in zip(p._fields, p[:-1])]
        lines.append(f"{pre}model.n = {p.n}")
        if run.error is not None:
            lines.append(f"{pre}error = {run.error}")
        lines.append(f"{pre}equilibria.count = {len(run.branches)}")
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
