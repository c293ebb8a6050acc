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

from .errors import ConfigError, DomainError
from .model import ModelParams

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


def _as_name(key: str, s: str) -> str:
    return s


#: every configuration key and the parser of its value, in parsing order
_KEYS = {
    "model.a1": _as_float, "model.a2": _as_float, "model.a12": _as_float,
    "model.a21": _as_float, "model.b1": _as_float, "model.b2": _as_float,
    "model.a": _as_float, "model.n": _as_int,
    "tau": _as_float, "k_max": _as_int,
    "sim.enabled": _as_bool, "sim.t_end": _as_float, "sim.step": _as_float,
    "sim.perturbation": _as_float,
    "sweep.param": _as_name, "sweep.start": _as_float, "sweep.stop": _as_float,
    "sweep.count": _as_int,
}


def _whole(block: str, given: dict) -> dict:
    """given, a block's values by field, once it holds all or none of them."""
    missing = [k for k in _KEYS
               if k.startswith(f"{block}.") and k.partition(".")[2] not in given]
    if given and missing:
        raise ConfigError(f"incomplete {block} block; missing " + ", ".join(missing))
    return given


def config_from_mapping(raw: dict[str, str]) -> AnalysisConfig:
    """Typed, validated configuration from raw strings."""
    # values by block and field; "" holds AnalysisConfig's own fields
    got = {"": {}, "model": {}, "sim": {}, "sweep": {}}
    for key, parse in _KEYS.items():
        if key in raw:
            block, _, field = key.rpartition(".")
            v = got[block][field] = parse(key, raw[key])
            # an int beyond the float range fails too; isfinite would raise
            if block == "model" and not abs(v) <= sys.float_info.max:
                raise ConfigError(f"{key} must be finite, got {v}")
    model, sweep = _whole("model", got["model"]), _whole("sweep", got["sweep"])
    cfg = AnalysisConfig(**got[""], sim=SimSpec(**got["sim"]),
                         sweep=SweepSpec(**sweep) if sweep else None)
    if model:
        try:
            cfg = cfg._replace(params=ModelParams(**model))
        except DomainError as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from None
    check_ranges(cfg)
    if sweep and not model:
        raise ConfigError("sweep requires a model block for the base values")
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    return cfg


def check_ranges(cfg: AnalysisConfig) -> None:
    """Raise ConfigError, naming the key, for a setting out of its range.

    config_from_mapping and run_analysis both call this, so a
    configuration built in code is held to a config file's ranges: a
    sweep whose model is invalid at either end is a configuration error
    before any point is analyzed. The model parameters check themselves
    when they are built.
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
        if sweep.param not in ModelParams._fields:
            raise ConfigError(f"sweep.param must be one of "
                              f"{sorted(ModelParams._fields)}, got {sweep.param!r}")
        if not 1 <= sweep.count <= _SWEEP_COUNT_LIMIT:
            raise ConfigError(f"sweep.count must be >= 1 and at most "
                              f"{_SWEEP_COUNT_LIMIT}, got {sweep.count}")
        if not -math.inf < sweep.start <= sweep.stop < math.inf:
            raise ConfigError("sweep.stop must be >= sweep.start, both finite")
        # valid ranges are intervals, so valid sweep ends make every point
        # valid; n sweeps the integers round(v)
        try:
            for v in (sweep.start, sweep.stop) if cfg.params is not None else ():
                cfg.params._replace(**{sweep.param: round(v) if sweep.param == "n" else v})
        except DomainError as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from None


def load_config(path: str) -> AnalysisConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})") from None
    return config_from_mapping(parse_config_text(text, source=path))
