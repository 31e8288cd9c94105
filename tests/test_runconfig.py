import json

import pytest

from mesopt.runconfig import ConfigError, load_config, parse_config


def minimal(**over):
    raw = {
        "backend": "synthetic-valley",
        "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.1, 0.1]},
    }
    raw.update(over)
    return raw


def test_minimal_config_defaults():
    cfg = parse_config(minimal())
    assert cfg.backend == "synthetic-valley"
    assert cfg.seed == 0
    assert cfg.grid.shape == (26, 26)
    assert cfg.optimizer.gamma == 0.9
    assert cfg.optimizer.epsilon == 0.1
    assert cfg.channel.nx == 192
    assert cfg.exp1.starts[0] == (2.2, 1.7)
    assert cfg.exp2.start == (9.7, 3.9)


def test_missing_grid_step_names_the_field():
    raw = minimal()
    del raw["grid"]["steps"]
    with pytest.raises(ConfigError, match=r"grid\.steps"):
        parse_config(raw)


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(minimal(bogus=1))
    raw = minimal()
    raw["optimizer"] = {"gamma": 0.9, "momentum": 0.5}
    with pytest.raises(ConfigError, match=r"optimizer\.momentum"):
        parse_config(raw)
    raw = minimal()
    raw["channel"] = {"nxx": 10}
    with pytest.raises(ConfigError, match=r"channel\.nxx"):
        parse_config(raw)


def test_type_errors_name_the_field():
    raw = minimal()
    raw["grid"]["steps"] = [0.1, "wide"]
    with pytest.raises(ConfigError, match=r"grid\.steps\[1\]"):
        parse_config(raw)
    raw = minimal(seed="zero")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(raw)


def test_invalid_backend():
    with pytest.raises(ConfigError, match="backend"):
        parse_config(minimal(backend="magic"))


def test_dimension_mismatches():
    raw = minimal()
    raw["optimizer"] = {"start": [2.0]}
    with pytest.raises(ConfigError, match=r"optimizer\.start"):
        parse_config(raw)
    raw = minimal()
    raw["optimizer"] = {"initial_radii": [3]}
    with pytest.raises(ConfigError, match=r"optimizer\.initial_radii"):
        parse_config(raw)


def test_channel_validation_propagates():
    raw = minimal(backend="stokes")
    raw["channel"] = {"line_E_x": 1.0}
    with pytest.raises(ConfigError, match="channel"):
        parse_config(raw)


def test_surrogate_samples_rule():
    # Box corners are the only sample placement, so the key is gone.
    raw = minimal()
    for placement in ("corners", "sobol"):
        raw["optimizer"] = {"surrogate_samples": placement}
        with pytest.raises(ConfigError, match=r"optimizer\.surrogate_samples: unknown field"):
            parse_config(raw)


def test_optimizer_tol_v_must_be_positive():
    raw = minimal()
    raw["optimizer"] = {"tol_v": 0.0}
    with pytest.raises(ConfigError, match=r"optimizer: tol_v must be positive"):
        parse_config(raw)


def test_fixedpoint_tol_v_must_be_positive():
    raw = minimal(backend="fictitious-1d", grid={"mins": [-3.0], "maxs": [2.0], "steps": [0.05]})
    raw["fixedpoint"] = {"tol_v": -1e-6}
    with pytest.raises(ConfigError, match=r"fixedpoint\.tol_v: must be positive"):
        parse_config(raw)


def test_walk_t0_must_be_positive():
    raw = minimal()
    raw["walk"] = {"t0": 0.0}
    with pytest.raises(ConfigError, match=r"walk\.t0: must be positive"):
        parse_config(raw)


def test_cooling_section():
    raw = minimal()
    raw["optimizer"] = {"cooling": {"kind": "inverse-log", "t0": 2.0}}
    cfg = parse_config(raw)
    assert cfg.optimizer.schedule.kind == "inverse-log"
    raw["optimizer"] = {"cooling": {"kind": "warmish"}}
    with pytest.raises(ConfigError, match=r"optimizer\.cooling"):
        parse_config(raw)


def test_grid_span_validation():
    raw = minimal()
    raw["grid"]["steps"] = [0.3, 0.1]
    with pytest.raises(ConfigError, match="grid"):
        parse_config(raw)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="file not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(lst)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal()))
    assert load_config(good).grid.d == 2


def test_exp_sections():
    raw = minimal()
    raw["exp1"] = {"starts": [[2.0, 2.0], [3.0, 3.0]]}
    raw["exp2"] = {"radii": [1, 2], "start": [3.0, 3.0], "max_cycles": 50}
    cfg = parse_config(raw)
    assert cfg.exp1.starts == ((2.0, 2.0), (3.0, 3.0))
    assert cfg.exp2.radii == (1, 2)
    raw["exp2"] = {"radii": [0]}
    with pytest.raises(ConfigError, match=r"exp2\.radii"):
        parse_config(raw)
