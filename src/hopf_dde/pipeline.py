"""End-to-end analysis orchestration.

One run analyzes a parameter set: find all positive equilibria, then per
equilibrium compute the characteristic coefficients, zero-delay verdict,
crossing frequencies with their delay ladders, the first Hopf point with
both delay derivatives, the normal form, a delay classification, and an
optional direct simulation. Failures are captured per equilibrium so one
degenerate branch cannot sink the report. Sweep points run one after
another, in sweep order.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .config import AnalysisConfig
from .equilibrium import Equilibrium, find_equilibria
from .errors import HopfDdeError, NumericalError
from .model import IY1, ModelParams
from .normal_form import NormalForm, compute_normal_form
from .simulation import History, Trajectory, integrate, oscillation_summary
from .stability import (CharCoeffs, HopfPoint, char_coeffs, classify_stability,
                        first_hopf, hopf_candidates, routh_hurwitz_stable)

log = logging.getLogger("hopf_dde")


@dataclasses.dataclass
class SimResult:
    tau: float
    t_end: float
    step: float
    perturbation: float
    trajectory: Trajectory
    period: float
    amp_variation: float
    y1_min: float
    y1_max: float


@dataclasses.dataclass
class BranchResult:
    """Everything computed for one equilibrium."""

    eq: Equilibrium
    cc: CharCoeffs | None = None
    rh_stable: bool | None = None
    candidates: list[tuple[float, list[float]]] = dataclasses.field(default_factory=list)
    hopf: HopfPoint | None = None
    nf: NormalForm | None = None
    classification: str | None = None
    tau_eval: float | None = None
    sim: SimResult | None = None
    flags: list[str] = dataclasses.field(default_factory=list)
    error: str | None = None


@dataclasses.dataclass
class RunResult:
    """One parameter set: label, parameters, per-equilibrium branches."""

    label: str
    params: ModelParams
    branches: list[BranchResult]
    error: str | None = None


def _simulate(p: ModelParams, eq: Equilibrium, tau: float,
              cfg: AnalysisConfig, hopf: HopfPoint | None) -> SimResult:
    sim = cfg.sim
    if sim.t_end is not None:
        t_end = sim.t_end
    elif hopf is not None:
        t_end = 10.0 * (2.0 * math.pi / hopf.omega_c)
    else:
        t_end = 200.0
    if sim.step is not None:
        m = max(1, int(round(tau / sim.step)))
    else:
        m = 256
    step = tau / m
    pert = sim.perturbation
    history = History.constant(eq.state() * (1.0 + pert), tau)
    log.info("simulating tau=%.6g t_end=%.6g step=%.6g", tau, t_end, step)
    traj = integrate(p, tau, history, t_end, step)
    osc = oscillation_summary(traj.t, traj.component(IY1))
    return SimResult(tau=tau, t_end=t_end, step=step, perturbation=pert,
                     trajectory=traj, period=osc["period"],
                     amp_variation=osc["amp_variation"],
                     y1_min=osc["min"], y1_max=osc["max"])


def analyze_branch(p: ModelParams, eq: Equilibrium, cfg: AnalysisConfig) -> BranchResult:
    br = BranchResult(eq=eq)
    try:
        br.cc = char_coeffs(p, eq)
        br.rh_stable = routh_hurwitz_stable(br.cc)
        if not br.rh_stable:
            br.flags.append(
                "equilibrium is unstable already at zero delay; delay "
                "crossings add further unstable root pairs, so the "
                "bifurcating orbit is not the observed attractor")
        br.candidates = hopf_candidates(br.cc, cfg.k_max)
        br.hopf = first_hopf(br.cc, cfg.k_max)
        if br.hopf is not None:
            br.nf = compute_normal_form(p, eq, br.hopf, cfg.variants)
            if br.nf.transversality_conflict:
                other = ("supercritical" if br.nf.mu2_implicit > 0.0
                         else "subcritical")
                br.flags.append(
                    "closed-form and implicit delay derivatives disagree in "
                    "sign; direction classification follows the closed form, "
                    f"the implicit route gives {other}")
            br.flags.append(
                "period trend follows the sign rule (T2 > 0 means the period "
                "grows along the branch); inverted phrasings of this rule "
                "appear in circulation")
        br.tau_eval = cfg.tau if cfg.tau is not None else (
            br.hopf.tau_c if br.hopf is not None else None)
        if br.tau_eval is not None:
            br.classification = classify_stability(p, eq, br.tau_eval)
        if cfg.sim.enabled and br.tau_eval is not None and br.tau_eval > 0.0:
            br.sim = _simulate(p, eq, br.tau_eval, cfg, br.hopf)
    except NumericalError as exc:
        br.error = f"{type(exc).__name__}: {exc}"
        log.info("branch y10=%.6g failed: %s", eq.y10, br.error)
    return br


def analyze_params(p: ModelParams, cfg: AnalysisConfig, label: str = "") -> RunResult:
    log.info("analyzing %s", label or "parameter set")
    try:
        eqs = find_equilibria(p)
    except NumericalError as exc:
        return RunResult(label=label, params=p, branches=[],
                         error=f"{type(exc).__name__}: {exc}")
    if not eqs:
        return RunResult(label=label, params=p, branches=[],
                         error="no positive equilibrium found")
    return RunResult(label=label, params=p,
                     branches=[analyze_branch(p, eq, cfg) for eq in eqs])


def sweep_values(spec) -> list[float | int]:
    """Parameter values of a sweep; integer-valued for the Hill exponent."""
    if spec.count == 1:
        vals = [spec.start]
    else:
        vals = list(np.linspace(spec.start, spec.stop, spec.count))
    if spec.param == "n":
        seen: list[int] = []
        for v in vals:
            iv = int(round(v))
            if iv not in seen:
                seen.append(iv)
        return seen
    return [float(v) for v in vals]


def run_analysis(cfg: AnalysisConfig, workers: int = 1) -> list[RunResult]:
    """All runs for a configuration: single set or each sweep point in order.

    workers is accepted for compatibility and has no effect: the
    integrator runs in Python and holds the interpreter lock, so a thread
    pool measured no speed-up.
    """
    if cfg.params is None:
        raise HopfDdeError("configuration has no model parameters")
    if cfg.sweep is None:
        return [analyze_params(cfg.params, cfg)]
    return [analyze_params(dataclasses.replace(cfg.params, **{cfg.sweep.param: v}),
                           cfg, f"{cfg.sweep.param}={v:.10g}")
            for v in sweep_values(cfg.sweep)]
