"""Each setting has one home, its dataclass field.

A section left out, given as ``{}`` or built from the dataclass defaults
gives the same settings; only the grid-dependent defaults are set by the
config reader.  Shipped configs parse, and the optimizer block a run echoes
into ``trace.json`` reads back to the settings the run used.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from mesopt import cli
from mesopt.reduction import OptimizerConfig
from mesopt.runconfig import (
    Exp1Settings,
    Exp2Settings,
    FixedPointSettings,
    RunConfig,
    WalkSettings,
    load_config,
    parse_config,
)
from mesopt.stokes import ChannelConfig
from mesopt.value import CoolingSchedule

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "backend": "synthetic-valley",
    "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.1, 0.1]},
}

FIELD_DEFAULTS = {
    # Grid-dependent: 3 radii per dimension and the grid's last node.
    "optimizer": OptimizerConfig(initial_radii=(3, 3)),
    "channel": ChannelConfig(),
    "walk": WalkSettings(start=(4.0, 4.0)),
    "fixedpoint": FixedPointSettings(),
    "exp1": Exp1Settings(),
    "exp2": Exp2Settings(),
}


@pytest.mark.parametrize("section", sorted(FIELD_DEFAULTS))
def test_absent_empty_and_field_defaults_agree(section):
    absent = parse_config(BASE)
    for given in ({}, None):
        assert parse_config(dict(BASE, **{section: given})) == absent
    assert getattr(absent, section) == FIELD_DEFAULTS[section]


def test_section_extras_and_grid_dependent_defaults():
    cfg = parse_config(BASE)
    assert cfg.start == (2.0, 2.0)
    assert cfg.walk.start == (4.0, 4.0)
    assert (cfg.channel.airfoil_e, cfg.channel.n_shape_samples) == (0.3, 257)
    one_d = parse_config({"backend": "fictitious-1d", "grid": {"mins": [-3.0], "maxs": [2.0], "steps": [0.05]}})
    assert one_d.optimizer.initial_radii == (3,)
    assert one_d.start == (2.0,)
    assert one_d.walk.start == (2.0,)


def test_cooling_keys_default_to_the_field_default():
    # Each CoolingSchedule field keeps its own default t0 for missing keys.
    cfg = parse_config(dict(BASE, optimizer={"cooling": {}}, fixedpoint={"cooling": {"kind": "inverse-log"}}))
    assert cfg.optimizer.cooling == CoolingSchedule()
    assert cfg.fixedpoint.cooling == CoolingSchedule(kind="inverse-log", t0=1e-3)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_parses(path):
    cfg = load_config(path)
    assert cfg.grid.d == len(cfg.start) == len(cfg.optimizer.initial_radii)


def test_trace_optimizer_block_reads_back(tmp_path):
    doc = dict(
        BASE,
        optimizer={
            "start": [3.0, 2.6],
            "gamma": 0.8,
            "epsilon": 0.2,
            "initial_radii": [2, 2],
            "tol_v": 1e-5,
            "max_cycles": 5,
            "max_j": 40,
            "freeze_mode": "off",
            "cooling": {"kind": "standard-log", "t0": 0.5},
        },
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 4)
    block = json.loads((tmp_path / "o" / "trace.json").read_text())["optimizer"]
    block["start"] = doc["optimizer"]["start"]
    assert parse_config(dict(BASE, optimizer=block)).optimizer == load_config(path).optimizer


def test_off_grid_walk_start_costs_no_evaluation(tmp_path, monkeypatch, capsys):
    built = []
    real_build = cli.build_backend

    def counting_build(cfg):
        built.append(real_build(cfg))
        return built[-1]

    monkeypatch.setattr(cli, "build_backend", counting_build)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, walk={"start": [9.0, 9.0]})))
    assert cli.main(["walk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert sum(b.calls for b in built) == 0
    assert capsys.readouterr().err == (
        "config error: walk.start: value 9.0 lies outside the grid's bounds [1.5, 4.0]\n"
    )


def test_top_level_keys_default_to_the_field_default():
    cfg = parse_config({"grid": BASE["grid"]})
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.default is not dataclasses.MISSING}
    assert defaults == {"backend": "synthetic-valley", "seed": 0}
    assert (cfg.backend, cfg.seed) == (defaults["backend"], defaults["seed"])
    given = parse_config({"grid": BASE["grid"], "backend": "stokes", "seed": 7})
    assert (given.backend, given.seed) == ("stokes", 7)
