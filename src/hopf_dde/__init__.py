"""Hopf bifurcation analysis of a delayed P53-MDM2 feedback model.

Library layout:

- model: parameters, Hill nonlinearity
- equilibrium: the positive steady state, by Newton steps on its a-priori
  bracket
- stability: characteristic coefficients, the crossing frequency, critical
  delays, transversality
- normal_form: first Lyapunov coefficient from the characteristic matrix,
  bifurcation classification
- simulation: method-of-steps RK4, history functions, oscillation statistics
- pipeline/report/cli: orchestration and deterministic text outputs;
  csv_output writes the simulated waveforms

Only simulation and csv_output import numpy. The simulation names below
load on first access, so importing the package, or running an analysis
that does not simulate, does not import numpy.

Records (parameters, configuration, results) are typing.NamedTuple, not
dataclasses: the dataclasses import and its generated methods were half
of the package's import time. ModelParams validates every construction,
_replace included.
"""

from .config import AnalysisConfig, SimSpec, SweepSpec, load_config
from .equilibrium import Equilibrium, build_equilibrium, find_equilibria
from .errors import (ConfigError, DivergenceError, DomainError, HopfDdeError,
                     NumericalError, SingularSystemError)
from .model import (IX1, IX2, IY1, IY2, PRESETS, STATE_NAMES, ModelParams,
                    hill_derivs, hill_eval)
from .normal_form import (Eigenpair, NormalForm, compute_eigenpair,
                          compute_normal_form, g_quadratic,
                          hopf_quantities, solve_E_vectors)
from .pipeline import BranchResult, RunResult, analyze_params, run_analysis
from .report import parse_report, render_report
from .stability import (CharCoeffs, HopfPoint, char_coeffs, classify_stability,
                        critical_delays, first_hopf, hopf_candidates,
                        routh_hurwitz_stable, transversality,
                        transversality_closed_form)

__version__ = "0.1.0"

_SIMULATION_NAMES = ("Trajectory", "constant_history", "integrate",
                     "oscillation_summary", "upward_crossings")


def __getattr__(name: str):
    # PEP 562: `from hopf_dde import integrate` imports simulation here
    if name in _SIMULATION_NAMES:
        from . import simulation
        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
