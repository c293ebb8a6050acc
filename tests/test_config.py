"""Configuration parsing and validation."""

import re

import pytest

from hopf_dde import AnalysisConfig, ConfigError, load_config
from hopf_dde.config import (config_from_mapping, parse_config_text,
                             _as_bool, _as_float, _as_int)

FULL = """
# model block
model.a1 = 0.13
model.a2 = 0.13
model.a12 = 0.02
model.a21 = 0.02
model.b1 = 0.864     # trailing comment
model.b2 = 0.01
model.a = 4
model.n = 2

tau = 25.0
k_max = 5
sim.enabled = true
sim.t_end = 500.0
sim.step = 0.5
sim.perturbation = 0.02
"""


def test_parse_basics():
    raw = parse_config_text(FULL)
    assert raw["model.b1"] == "0.864"
    assert raw["sim.enabled"] == "true"
    assert "# model block" not in raw


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(ConfigError, match=r"f\.cfg:3"):
        parse_config_text("a = 1\n\nnot a pair\n", source="f.cfg")


def test_parse_empty_key_or_value():
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("= 3\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("tau =\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match=r":2: duplicate key 'tau'"):
        parse_config_text("tau = 1\ntau = 2\n")


def test_coercions():
    assert _as_float("k", "2.5e-3") == 2.5e-3
    assert _as_int("k", "42") == 42
    assert _as_bool("k", "YES") is True
    assert _as_bool("k", "0") is False
    with pytest.raises(ConfigError, match="expected a number"):
        _as_float("k", "abc")
    with pytest.raises(ConfigError, match="expected an integer"):
        _as_int("k", "2.5")
    with pytest.raises(ConfigError, match="expected true/false"):
        _as_bool("k", "maybe")


def test_full_config_round_trip():
    cfg = config_from_mapping(parse_config_text(FULL))
    assert cfg.params is not None
    assert cfg.params.b1 == 0.864
    assert cfg.params.n == 2
    assert cfg.tau == 25.0
    assert cfg.k_max == 5
    assert cfg.sim.enabled is True
    assert cfg.sim.t_end == 500.0
    assert cfg.sim.step == 0.5
    assert cfg.sim.perturbation == 0.02
    assert cfg.sweep is None


def test_empty_config_gives_defaults():
    cfg = config_from_mapping({})
    assert cfg == AnalysisConfig()
    assert cfg.params is None
    assert cfg.k_max == 8
    assert cfg.sim.enabled is True


def test_incomplete_model_block():
    with pytest.raises(ConfigError, match="missing model.a2"):
        config_from_mapping({"model.a1": "0.13"})


def test_invalid_model_parameters():
    raw = parse_config_text(FULL)
    raw["model.b1"] = "0.0"
    with pytest.raises(ConfigError, match="invalid model parameters"):
        config_from_mapping(raw)


def test_range_validation():
    with pytest.raises(ConfigError, match="tau must be non-negative"):
        config_from_mapping({"tau": "-1"})
    with pytest.raises(ConfigError, match="k_max must be non-negative"):
        config_from_mapping({"k_max": "-2"})
    with pytest.raises(ConfigError,
                       match="k_max must be non-negative and at most 10000, got 10001"):
        config_from_mapping({"k_max": "10001"})
    assert config_from_mapping({"k_max": "10000"}).k_max == 10000
    with pytest.raises(ConfigError, match="sim.t_end must be positive"):
        config_from_mapping({"sim.t_end": "0"})
    with pytest.raises(ConfigError, match="sim.step must be positive"):
        config_from_mapping({"sim.step": "-0.5"})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["tau", "sim.t_end", "sim.step", "sim.perturbation",
                                 "model.a"])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be")):
        config_from_mapping({key: value})


def _with_sweep(**over):
    raw = parse_config_text(FULL)
    raw.update({"sweep.param": "n", "sweep.start": "2",
                "sweep.stop": "4", "sweep.count": "3"})
    raw.update(over)
    return raw


def test_sweep_block():
    cfg = config_from_mapping(_with_sweep())
    assert cfg.sweep is not None
    assert cfg.sweep.param == "n"
    assert cfg.sweep.count == 3


def test_sweep_validation():
    raw = _with_sweep()
    del raw["sweep.stop"]
    with pytest.raises(ConfigError, match="incomplete sweep block"):
        config_from_mapping(raw)
    with pytest.raises(ConfigError, match="sweep.param must be one of"):
        config_from_mapping(_with_sweep(**{"sweep.param": "tau"}))
    with pytest.raises(ConfigError, match="sweep.count must be >= 1"):
        config_from_mapping(_with_sweep(**{"sweep.count": "0"}))
    # every point is held in memory and printed in report.txt
    for big in ("10001", "1000000000000"):
        with pytest.raises(ConfigError, match=f"^sweep.count must be >= 1 and "
                                              f"at most 10000, got {big}$"):
            config_from_mapping(_with_sweep(**{"sweep.count": big}))
    cfg = config_from_mapping(_with_sweep(**{"sweep.count": "10000"}))
    assert cfg.sweep.count == 10000
    with pytest.raises(ConfigError, match="sweep.stop must be >= sweep.start"):
        config_from_mapping(_with_sweep(**{"sweep.stop": "1"}))


@pytest.mark.parametrize("key", ["model.n", "sweep.count"])
def test_integer_beyond_the_float_range_rejected(key):
    # no float holds it: math.isfinite (model.n) and the sweep's value
    # arithmetic (sweep.count) raised OverflowError
    big = "1" + "0" * 400
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be .*, got {big}$"):
        config_from_mapping(_with_sweep(**{key: big}))


@pytest.mark.parametrize("param, start, stop, bad", [
    ("a1", "0.5", "1.5", "a1 must lie in (0, 1], got 1.5"),
    ("a12", "-0.01", "0.03", "a12 must lie in [0, 1], got -0.01"),
    ("a", "0", "4", "a must be positive and finite, got 0.0"),
    # n sweeps the integers round(v): 0.4 rounds to 0
    ("n", "0", "4", "n must be an integer >= 1, got 0"),
    ("n", "0.4", "4", "n must be an integer >= 1, got 0"),
], ids=["a1", "a12", "a", "n0", "n0.4"])
def test_out_of_domain_sweep_endpoint(param, start, stop, bad):
    raw = _with_sweep(**{"sweep.param": param, "sweep.start": start,
                         "sweep.stop": stop})
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(raw)
    assert str(exc.value) == f"invalid model parameters: {bad}"


@pytest.mark.parametrize("param, start, stop", [
    ("a1", "0.5", "1.0"), ("a12", "0", "1"), ("b2", "1e-300", "1"),
    # 0.6 rounds to n = 1, the smallest valid exponent
    ("n", "0.6", "4"),
])
def test_sweep_endpoints_on_the_domain_boundary_are_valid(param, start, stop):
    raw = _with_sweep(**{"sweep.param": param, "sweep.start": start,
                         "sweep.stop": stop})
    assert config_from_mapping(raw).sweep.param == param


@pytest.mark.parametrize("start, stop", [("nan", "4"), ("2", "nan"),
                                         ("2", "inf"), ("-inf", "4")])
def test_sweep_endpoints_must_be_finite(start, stop):
    # a sweep of a up to inf would run nan points
    with pytest.raises(ConfigError, match="both finite"):
        config_from_mapping(_with_sweep(**{"sweep.param": "a",
                                           "sweep.start": start,
                                           "sweep.stop": stop}))


def test_sweep_requires_model_block():
    with pytest.raises(ConfigError, match="sweep requires a model block"):
        config_from_mapping({"sweep.param": "n", "sweep.start": "2",
                             "sweep.stop": "4", "sweep.count": "3"})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown configuration keys: taus"):
        config_from_mapping({"taus": "3"})


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL)
    cfg = load_config(str(path))
    assert cfg.params.a == 4.0
    bad = tmp_path / "bad.cfg"
    bad.write_text("tau = 1\nbroken line\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(str(bad))
