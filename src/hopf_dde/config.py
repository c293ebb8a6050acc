"""Key = value configuration parsing and validation.

The format is flat lines of `key = value`, with `#` starting a comment
(full line or trailing) and blank lines ignored. Dotted keys group
related settings:

    model.a1 = 0.13        # model rate constants (all eight required
    ...                    # when any model.* key is present)
    model.n = 2
    tau = 25.0             # optional analysis/simulation delay
    k_max = 8              # delay-ladder depth per crossing frequency
    sim.enabled = true
    sim.t_end = 5000.0     # defaults derived from the Hopf point
    sim.step = 0.35        # snapped to an exact divisor of the delay
    sim.perturbation = 0.01
    sweep.param = n        # optional one-parameter sweep
    sweep.start = 2
    sweep.stop = 4
    sweep.count = 2

Unknown keys are rejected, so a misspelled or retired key fails the run.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ConfigError
from .model import ModelParams

_MODEL_KEYS = ("a1", "a2", "a12", "a21", "b1", "b2", "a", "n")
#: report.txt prints k_max + 1 critical delays per crossing
_K_MAX_LIMIT = 10000
#: a sweep holds every point's values and results in memory, and
#: report.txt prints every point
_SWEEP_COUNT_LIMIT = 10000


class SimSpec(NamedTuple):
    enabled: bool = True
    t_end: float | None = None
    step: float | None = None
    perturbation: float = 0.01


class SweepSpec(NamedTuple):
    param: str
    start: float
    stop: float
    count: int  # shadows tuple.count


class AnalysisConfig(NamedTuple):
    params: ModelParams | None = None
    tau: float | None = None
    k_max: int = 8
    sim: SimSpec = SimSpec()
    sweep: SweepSpec | None = None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings; syntax errors carry line numbers."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{ln}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"{source}:{ln}: duplicate key {key!r}")
        out[key] = value
    return out


def _as_float(key: str, s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {s!r}") from None


def _as_int(key: str, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {s!r}") from None


def _as_bool(key: str, s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {s!r}")


def config_from_mapping(raw: dict[str, str]) -> AnalysisConfig:
    """Typed, validated configuration from raw strings."""
    known = set()

    def take(key):
        known.add(key)
        return raw.get(key)

    model_vals = {}
    for name in _MODEL_KEYS:
        s = take(f"model.{name}")
        if s is None:
            continue
        v = _as_int(f"model.{name}", s) if name == "n" \
            else _as_float(f"model.{name}", s)
        # an int beyond the float range fails too; isfinite would raise
        if not abs(v) <= sys.float_info.max:
            raise ConfigError(f"model.{name} must be finite, got {v}")
        model_vals[name] = v
    if model_vals:
        missing = [k for k in _MODEL_KEYS if k not in model_vals]
        if missing:
            raise ConfigError(
                "incomplete model block; missing "
                + ", ".join(f"model.{k}" for k in missing))

    tau_s = take("tau")
    tau = _as_float("tau", tau_s) if tau_s is not None else None
    k_s = take("k_max")
    k_max = _as_int("k_max", k_s) if k_s is not None else 8

    sim_kwargs = {}
    s = take("sim.enabled")
    if s is not None:
        sim_kwargs["enabled"] = _as_bool("sim.enabled", s)
    for name in ("t_end", "step", "perturbation"):
        s = take(f"sim.{name}")
        if s is not None:
            sim_kwargs[name] = _as_float(f"sim.{name}", s)
    sim = SimSpec(**sim_kwargs)

    sweep_raw = {name: take(f"sweep.{name}")
                 for name in ("param", "start", "stop", "count")}
    sweep = None
    present = [k for k, v in sweep_raw.items() if v is not None]
    if present:
        missing = [k for k, v in sweep_raw.items() if v is None]
        if missing:
            raise ConfigError("incomplete sweep block; missing "
                              + ", ".join(f"sweep.{k}" for k in missing))
        sweep = SweepSpec(
            param=sweep_raw["param"],
            start=_as_float("sweep.start", sweep_raw["start"]),
            stop=_as_float("sweep.stop", sweep_raw["stop"]),
            count=_as_int("sweep.count", sweep_raw["count"]),
        )
    cfg = AnalysisConfig(tau=tau, k_max=k_max, sim=sim, sweep=sweep)
    check_ranges(cfg)
    if sweep is not None and not model_vals:
        raise ConfigError("sweep requires a model block for the base values")

    if model_vals:
        # valid ranges are intervals, so valid sweep ends make every point valid
        try:
            cfg = cfg._replace(params=ModelParams(**model_vals))
            for v in (sweep.start, sweep.stop) if sweep is not None else ():
                v = round(v) if sweep.param == "n" else v
                ModelParams(**{**model_vals, sweep.param: v})
        except Exception as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from None

    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    return cfg


def check_ranges(cfg: AnalysisConfig) -> None:
    """Raise ConfigError, naming the key, for a setting out of its range.

    config_from_mapping and run_analysis both call this, so a
    configuration built in code is held to a config file's ranges. The
    model parameters check themselves when they are built.
    """
    if cfg.tau is not None and not 0.0 <= cfg.tau < math.inf:
        raise ConfigError(f"tau must be non-negative and finite, got {cfg.tau}")
    if not 0 <= cfg.k_max <= _K_MAX_LIMIT:
        raise ConfigError(f"k_max must be non-negative and at most "
                          f"{_K_MAX_LIMIT}, got {cfg.k_max}")
    for name in ("t_end", "step"):
        v = getattr(cfg.sim, name)
        if v is not None and not 0.0 < v < math.inf:
            raise ConfigError(f"sim.{name} must be positive and finite, got {v}")
    if not math.isfinite(cfg.sim.perturbation):
        raise ConfigError(
            f"sim.perturbation must be finite, got {cfg.sim.perturbation}")
    sweep = cfg.sweep
    if sweep is not None:
        if sweep.param not in _MODEL_KEYS:
            raise ConfigError(f"sweep.param must be one of {sorted(_MODEL_KEYS)}, "
                              f"got {sweep.param!r}")
        if not 1 <= sweep.count <= _SWEEP_COUNT_LIMIT:
            raise ConfigError(f"sweep.count must be >= 1 and at most "
                              f"{_SWEEP_COUNT_LIMIT}, got {sweep.count}")
        if not -math.inf < sweep.start <= sweep.stop < math.inf:
            raise ConfigError("sweep.stop must be >= sweep.start, both finite")


def load_config(path: str) -> AnalysisConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_mapping(parse_config_text(text, source=path))
