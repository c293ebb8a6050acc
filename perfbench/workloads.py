"""Benchmark workloads: `analyze` invocations generated from a seed.

Each workload is a list of ops; an op is one `analyze --config FILE`
call (plus `--paper-case` for presets). A probe op runs once after the
timed loop and counts in no metric. A seed changes the inputs
without changing the work: the perturbation of the preset runs, the
start of the `a12` grid and the order of the `n` sweeps.
The default seed uses the canonical inputs whose outputs are frozen in
frozen.json.
"""

from __future__ import annotations

import dataclasses
import random

DEFAULT_SEED = 0
NAMES = ("presets", "sweep_n", "sweep_a12")

_BASE = (("a1", 0.13), ("a2", 0.13), ("a12", 0.02), ("a21", 0.02),
         ("b1", 0.8), ("b2", 0.01), ("a", 4.0))


@dataclasses.dataclass(frozen=True)
class Op:
    name: str                 # unique within a workload; names its output dir
    config: str               # text of the --config file
    paper_case: str | None    # --paper-case argument, if any
    points: int               # parameter points the op analyses
    probe: bool = False       # run once, outside the timed ops and the counts


def _model(n: int) -> str:
    return "".join(f"model.{k} = {v!r}\n" for k, v in _BASE) + f"model.n = {n}\n"


def _presets(rng: random.Random, default: bool) -> list[Op]:
    # Single analyses at the defaults. n2/n4/n164 integrate with 256 steps
    # per delay interval; n163 with an explicit step above 2*tau_c takes one
    # step per interval (~70 k steps). Default n163 (~17.8 M steps) is the
    # known hang: a probe, so its budget outcome is reported without
    # counting as a failed op. The order is fixed: it moves peak RSS by ~3 %.
    pert = 0.01 if default else round(rng.uniform(0.005, 0.02), 6)
    sim = f"sim.perturbation = {pert!r}\n"
    ops = [Op(case, sim, case, 1) for case in ("n2", "n4", "n164")]
    return ops + [Op("n163_coarse", sim + "sim.step = 0.005\n", "n163", 1),
                  Op("n163", sim, "n163", 1, probe=True)]


def _sweep_n(rng: random.Random, default: bool) -> list[Op]:
    # The paper's analytic curves over the Hill exponent; no simulation, so
    # the equilibrium search dominates. 40 points over 2..158 in five sweeps
    # of eight, so calibration runs between ops of about 1 s. The grid is
    # the same for every seed: the search's cost depends on n, and shifting
    # the grid by 1-3 moved the work by up to 7 %.
    ops = []
    for g in range(5):
        first = 2 + 32 * g
        cfg = (_model(4) + "sim.enabled = false\nsweep.param = n\n"
               f"sweep.start = {first}\nsweep.stop = {first + 28}\n"
               "sweep.count = 8\n")
        ops.append(Op(f"n{first}-{first + 28}", cfg, None, 8))
    if not default:
        rng.shuffle(ops)
    return ops


def _sweep_a12(rng: random.Random, default: bool) -> list[Op]:
    # Same-shaped sweep members with simulation on, the path batched
    # integration serves: one sweep of 8 points of a12 at n = 4, so a
    # batched integrator can take all members in one call.
    lo = 0.01 if default else 0.01 + rng.uniform(0.0, 0.003)
    cfg = (_model(4) + "sweep.param = a12\n"
           f"sweep.start = {lo!r}\nsweep.stop = {lo + 0.03!r}\nsweep.count = 8\n")
    return [Op("a12", cfg, None, 8)]


def build(workload: str, seed: int) -> list[Op]:
    """The ops of a workload for a seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    return {"presets": _presets, "sweep_n": _sweep_n,
            "sweep_a12": _sweep_a12}[workload](rng, seed == DEFAULT_SEED)
