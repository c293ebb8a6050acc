"""End-to-end analysis orchestration.

One run analyzes a parameter set: find the positive equilibrium (it is
unique; the report keeps a list of branches), then compute its
characteristic coefficients, zero-delay verdict, the crossing frequency,
if any, with its delay ladder, the first Hopf point with both delay
derivatives, the normal form, a delay classification, and an optional
direct simulation. The frequency cubic is solved once per branch: the
Hopf point and the classification take the crossing found. Numerical
failures, float overflow and division by zero included, are recorded as
the run's or the branch's error so one degenerate point cannot sink the
report. Sweep points run one after another, in sweep order.
"""

from __future__ import annotations

import collections
import importlib
import math
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from .config import AnalysisConfig, check_ranges
from .equilibrium import Equilibrium, find_equilibria
from .errors import ConfigError, NumericalError
from .model import IY1, ModelParams
from .normal_form import NormalForm, compute_normal_form
from .stability import (CharCoeffs, HopfPoint, _cubic_slope, char_coeffs,
                        classify_stability, first_hopf, hopf_candidates,
                        routh_hurwitz_stable)

if TYPE_CHECKING:
    from collections.abc import Callable

    from .simulation import Trajectory


def progress(fmt: str, *args) -> None:
    """Write `INFO hopf_dde: fmt % args` to stderr when HOPF_DDE_LOG is info
    or debug (any case); otherwise return before formatting anything."""
    if os.environ.get("HOPF_DDE_LOG", "").lower() in ("info", "debug"):
        print("INFO hopf_dde: " + fmt % args, file=sys.stderr)


def deferred(module: str, name: str):
    """module.name, with module (relative to this package) imported on the
    first call: simulation and csv_output import numpy, which an analysis
    that does not simulate never needs."""
    def call(*args):
        return getattr(importlib.import_module(module, __package__), name)(*args)
    return call


# _simulate calls these module names, which a tracer can wrap
integrate = deferred(".simulation", "integrate")
oscillation_summary = deferred(".simulation", "oscillation_summary")


class SimResult(NamedTuple):
    tau: float
    t_end: float
    step: float
    perturbation: float
    # None once run_analysis has passed the run to its on_run callback
    trajectory: Trajectory | None
    period: float
    amp_variation: float
    y1_min: float
    y1_max: float


class BranchResult(NamedTuple):
    """Everything computed for one equilibrium."""

    eq: Equilibrium
    cc: CharCoeffs | None
    rh_stable: bool | None
    crossing: tuple[float, list[float]] | None
    hopf: HopfPoint | None
    nf: NormalForm | None
    classification: str | None
    tau_eval: float | None
    sim: SimResult | None
    flags: list[str]
    error: str | None


class RunResult(NamedTuple):
    """One parameter set: label, parameters, per-equilibrium branches."""

    label: str
    params: ModelParams
    branches: list[BranchResult]
    error: str | None = None


def _simulate(p: ModelParams, eq: Equilibrium, tau: float,
              cfg: AnalysisConfig, hopf: HopfPoint | None) -> SimResult:
    from .simulation import constant_history

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
    history = constant_history([c * (1.0 + pert) for c in eq.state()])
    progress("simulating tau=%.6g t_end=%.6g step=%.6g", tau, t_end, step)
    traj = integrate(p, tau, history, t_end, step)
    osc = oscillation_summary(traj.t, traj.component(IY1))
    return SimResult(tau=tau, t_end=t_end, step=step, perturbation=pert,
                     trajectory=traj, period=osc["period"],
                     amp_variation=osc["amp_variation"],
                     y1_min=osc["min"], y1_max=osc["max"])


def analyze_branch(p: ModelParams, eq: Equilibrium, cfg: AnalysisConfig) -> BranchResult:
    cc = rh_stable = crossing = hopf = nf = classification = None
    tau_eval = sim = error = None
    flags = []
    try:
        cc = char_coeffs(p, eq)
        rh_stable = routh_hurwitz_stable(cc)
        if not rh_stable:
            flags.append(
                "equilibrium is unstable already at zero delay; delay "
                "crossings add further unstable root pairs, so the "
                "bifurcating orbit is not the observed attractor")
        crossing = hopf_candidates(cc, cfg.k_max)
        hopf = first_hopf(cc, crossing)
        if hopf is not None:
            nf = compute_normal_form(p, eq, hopf)
            if nf.transversality_conflict:
                other = ("supercritical" if nf.mu2_implicit > 0.0
                         else "subcritical")
                slope = _cubic_slope(hopf.omega_c ** 2, cc.l1, cc.l2)
                flags.append(
                    "closed-form and implicit delay derivatives disagree in "
                    "sign; direction classification follows the closed form, "
                    f"the implicit route gives {other}; F'(omega_c^2) = "
                    f"{slope:.6g} > 0, and the Cooke-van den Driessche sign "
                    "rule, sign Re dlambda/dtau = sign F'(omega_c^2), agrees "
                    "with the implicit route")
            flags.append(
                "period trend follows the sign rule (T2 > 0 means the period "
                "grows along the branch); inverted phrasings of this rule "
                "appear in circulation")
        tau_eval = cfg.tau if cfg.tau is not None else (
            hopf.tau_c if hopf is not None else None)
        if tau_eval is not None:
            classification = classify_stability(cc, tau_eval, crossing)
        if cfg.sim.enabled and tau_eval is not None and tau_eval > 0.0:
            sim = _simulate(p, eq, tau_eval, cfg, hopf)
    except (NumericalError, ArithmeticError) as exc:
        # float ** and / raise OverflowError, ZeroDivisionError
        error = f"{type(exc).__name__}: {exc}"
        progress("branch y10=%.6g failed: %s", eq.y10, error)
    return BranchResult(eq, cc, rh_stable, crossing, hopf, nf, classification,
                        tau_eval, sim, flags, error)


def analyze_params(p: ModelParams, cfg: AnalysisConfig, label: str = "") -> RunResult:
    progress("analyzing %s", label or "parameter set")
    try:
        eqs = find_equilibria(p)
    except (NumericalError, ArithmeticError) as exc:
        return RunResult(label=label, params=p, branches=[],
                         error=f"{type(exc).__name__}: {exc}")
    return RunResult(label=label, params=p,
                     branches=[analyze_branch(p, eq, cfg) for eq in eqs])


def sweep_values(spec) -> list[float | int]:
    """Parameter values of a sweep; integer-valued for the Hill exponent."""
    if spec.count == 1:
        vals = [spec.start]
    else:
        # np.linspace's arithmetic, value for value: start + i step, the
        # last value stop, and i/div delta where the step underflows to 0
        div = spec.count - 1
        delta = spec.stop - spec.start
        step = delta / div
        vals = [(i * step if step else i / div * delta) + spec.start
                for i in range(div)] + [spec.stop]
    if spec.param == "n":
        return list(dict.fromkeys(int(round(v)) for v in vals))
    return [float(v) for v in vals]


def run_analysis(cfg: AnalysisConfig,
                 on_run: Callable[[RunResult, int], None] | None = None
                 ) -> list[RunResult]:
    """All runs for a configuration: single set or each sweep point in order.

    on_run, if given, is called with each run and the number of runs as
    soon as the run is analysed; the run's trajectories are released
    after that call, so a sweep holds one member's arrays at a time.

    Raises ConfigError for a setting out of the range a config file
    allows (config.check_ranges), however cfg was built.
    """
    if cfg.params is None:
        raise ConfigError("configuration has no model parameters")
    check_ranges(cfg)
    if cfg.sweep is None:
        points = [(cfg.params, "")]
    else:
        # each value once, as sweep_values gives the Hill exponent's
        param, vals = cfg.sweep.param, list(dict.fromkeys(sweep_values(cfg.sweep)))
        # 10 significant digits, or, where two values share those, the
        # fewest up to 17 (which tell any two floats apart) that part them
        text = [f"{v:.10g}" for v in vals]
        shared = {s for s, k in collections.Counter(text).items() if k > 1}
        if shared:
            d = next(d for d in range(11, 18)
                     if len({f"{v:.{d}g}" for v in vals}) == len(vals))
            text = [f"{v:.{d}g}" if s in shared else s for v, s in zip(vals, text)]
        points = [(cfg.params._replace(**{param: v}), f"{param}={s}")
                  for v, s in zip(vals, text)]
    results = []
    for p, label in points:
        run = analyze_params(p, cfg, label)
        if on_run is not None:
            on_run(run, len(points))
            run = run._replace(branches=[
                br if br.sim is None
                else br._replace(sim=br.sim._replace(trajectory=None))
                for br in run.branches])
        results.append(run)
    return results
