import csv
import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mesopt import cli
from mesopt.cli import main
from mesopt.csvio import csv_body
from mesopt.runconfig import parse_config

VALLEY = {
    "backend": "synthetic-valley",
    "seed": 0,
    "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.1, 0.1]},
    "optimizer": {"start": [3.0, 2.6]},
    "walk": {"start": [3.5, 3.5], "n_walks": 12, "max_steps": 2000},
}

FICTITIOUS = {
    "backend": "fictitious-1d",
    "seed": 0,
    "grid": {"mins": [-3.0], "maxs": [2.0], "steps": [0.05]},
    "fixedpoint": {"iterations": 12, "cooling": {"t0": 0.001}},
    "walk": {"start": [-3.0], "n_walks": 6, "max_steps": 500},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_optimize_writes_trace_and_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path, VALLEY)
    traces = []

    def keep(*args, **kwargs):
        traces.append(run_optimization(*args, **kwargs))
        return traces[-1]

    run_optimization = cli.run_optimization
    with mock.patch.object(cli, "run_optimization", keep):
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = read_rows(tmp_path / "o" / "trace.csv")
    assert rows[0]["cycle"] == "0"
    assert {"f", "b", "R", "simulations", "frozen_dims", "radii_f", "radii_b"} <= set(rows[0])
    doc = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["terminated_reason"] == "converged"
    assert doc["total_simulations"] == sum(c["simulations_this_cycle"] for c in doc["cycles"])
    # Every cycle's record holds its value table: the trace reports the
    # table's iterations and convergence, and the file it refers to holds
    # the table's values.
    (trace,) = traces
    assert len(doc["cycles"]) == len(trace.cycles)
    for c, record in zip(doc["cycles"], trace.cycles):
        table = record.value_table
        assert (c["value_iterations"], c["value_converged"]) == (table.iterations, table.converged)
        assert c["value_table_ref"] == f"values_cycle_{c['n']:03d}.csv"
        path = tmp_path / "o" / c["value_table_ref"]
        assert path.exists()
        assert [float(r["V"]) for r in read_rows(path)] == table.values.tolist()


def test_optimize_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, VALLEY)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert csv_body(tmp_path / "a" / "trace.csv") == csv_body(tmp_path / "b" / "trace.csv")
    assert csv_body(tmp_path / "a" / "values_cycle_000.csv") == csv_body(
        tmp_path / "b" / "values_cycle_000.csv"
    )


def test_optimize_max_cycles_exit_code(tmp_path):
    doc = dict(VALLEY, optimizer={"start": [3.9, 1.7], "max_cycles": 2})
    cfg = write_cfg(tmp_path, doc)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_optimize_backend_failure_exit_code(tmp_path):
    # Default channel (Lz=2) cannot hold b ~ 3.9 profiles: first solve fails.
    doc = {
        "backend": "stokes",
        "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.1, 0.1]},
        "optimizer": {"start": [2.0, 3.9]},
        "channel": {"nx": 16, "nz": 8},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    doc = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert doc["terminated_reason"] == "error"
    # The backend's strip envelope skips the grid's too-thick nodes, so the
    # start's own solve raises the fit error.
    assert doc["error"].startswith("FlowError: airfoil thickness")
    assert "geometry does not fit" in doc["error"]


def test_too_thick_node_fails_after_valid_solves(tmp_path, capsys):
    # At Lz = 2 the b = 2 blades fit and the b = 3.5 ones do not: walk
    # solves the fitting nodes in the envelope of the grid's valid blades,
    # then reaches a thick node and fails as a backend failure.
    doc = {
        "backend": "stokes",
        "grid": {"mins": [2.0, 2.0], "maxs": [2.1, 3.5], "steps": [0.1, 1.5]},
        "walk": {"start": [2.0, 2.0]},
        "channel": {"nx": 16, "nz": 8},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "backend failure: airfoil thickness" in err and "geometry does not fit" in err
    # landscape records each node's own outcome: the fitting blades solve.
    assert main(["landscape", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
    rows = read_rows(tmp_path / "l" / "landscape.csv")
    assert [r["b"] for r in rows if r["R"]] == ["2.0", "2.0"]
    thick = [r["error"] for r in rows if not r["R"]]
    assert len(thick) == 2 and all(e.startswith("FlowError: airfoil thickness") for e in thick)


def test_geometry_error_is_a_backend_failure(tmp_path, capsys):
    # f = 0.5 is below the airfoil family's bound f >= 1: walk evaluates
    # every grid node, and the first one fails before any solve.
    doc = {
        "backend": "stokes",
        "grid": {"mins": [0.5, 2.0], "maxs": [0.6, 2.1], "steps": [0.1, 0.1]},
        "channel": {"nx": 16, "nz": 8},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "backend failure: camber root f must be >= 1 (got 0.5)" in capsys.readouterr().err
    # Optimize from a valid start: the envelope skips the f = 0.5 nodes and
    # the box reaches them after the valid solves.
    doc["grid"] = {"mins": [0.5, 2.0], "maxs": [1.5, 2.2], "steps": [0.5, 0.1]}
    doc["optimizer"] = {"start": [1.5, 2.1]}
    cfg = write_cfg(tmp_path, doc)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "p")]) == 3
    trace = json.loads((tmp_path / "p" / "trace.json").read_text())
    assert trace["error"] == "GeometryError: camber root f must be >= 1 (got 0.5)"
    assert trace["total_simulations"] == 1  # the start solved first


def test_blade_outside_the_envelope_propagates(tmp_path, monkeypatch):
    # A solve whose blade leaves the strip envelope is a caller bug: it is
    # no backend failure (exit 3), so main lets the ValueError through and
    # the process exits 1.
    from mesopt import objectives

    monkeypatch.setattr(objectives, "_grid_envelope", lambda grid, ch: np.zeros((ch.nx, ch.nz), bool))
    doc = {
        "backend": "stokes",
        "grid": {"mins": [2.0, 2.0], "maxs": [2.1, 2.1], "steps": [0.1, 0.1]},
        "optimizer": {"start": [2.0, 2.0]},
        "channel": {"nx": 16, "nz": 8},
    }
    cfg = write_cfg(tmp_path, doc)
    for command in ("optimize", "landscape", "walk"):
        with pytest.raises(ValueError, match="outside the strip"):
            main([command, "--config", cfg, "--out", str(tmp_path / command)])


def test_validation_error_exit_code(tmp_path):
    bad = {"backend": "synthetic-valley", "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0]}}
    cfg = write_cfg(tmp_path, bad)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["optimize", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2
    cfg = write_cfg(tmp_path, VALLEY, "ok.json")
    assert main(["optimize", "--config", cfg, "--backend", "quantum", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, section, extra_args, field",
    [
        ("walk", {"seed": -1}, [], "seed"),
        ("walk", {}, ["--seed", "-1"], "seed"),
        ("exp2", {"exp2": {"max_cycles": 0}}, [], "max_cycles"),
        ("optimize", {"optimizer": {"start": [3.0, 2.6], "max_j": -3}}, [], "max_j"),
        ("optimize", {"backend": "stokes", "channel": {"n_shape_samples": 4}}, [], "n_shape_samples"),
        ("optimize", {"optimizer": {"start": [3.0, 2.6], "initial_radii": [0, 0]}}, [], "initial_radii"),
    ],
)
def test_invalid_setting_is_a_config_error(tmp_path, capsys, command, section, extra_args, field):
    # Each value used to end in a traceback (exit 1) or as a backend
    # failure (exit 3); each is a config error that names its field.
    cfg = write_cfg(tmp_path, dict(VALLEY, **section))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *extra_args]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and field in line


@pytest.mark.parametrize(
    "key, value, flag, line",
    [
        ("seed", -1, ["--seed", "-1"], "config error: seed: must be non-negative"),
        (
            "backend",
            "quantum",
            ["--backend", "quantum"],
            "config error: backend: must be one of stokes, synthetic-valley, fictitious-1d",
        ),
        (
            "backend",
            "fictitious-1d",
            ["--backend", "fictitious-1d"],
            "config error: grid: backend 'fictitious-1d' needs a 1-d grid",
        ),
    ],
    ids=["seed", "unknown-backend", "backend-of-another-dimension"],
)
def test_a_flag_behaves_like_its_key(tmp_path, capsys, key, value, flag, line):
    # The flag and the same value written into the document meet one check.
    outcomes = []
    for doc, args in ((dict(VALLEY, **{key: value}), []), (VALLEY, flag)):
        cfg = write_cfg(tmp_path, doc)
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"), *args])
        outcomes.append((rc, capsys.readouterr().err.splitlines()))
    assert outcomes == [(2, [line])] * 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("backend", ["magic", "fictitious-1d"])
def test_a_flag_rescues_an_invalid_file_value(tmp_path, backend):
    # The flag replaces the file's value before any check reads it: an
    # unknown name and a backend of another dimension alike.
    cfg = write_cfg(tmp_path, dict(VALLEY, backend=backend))
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["optimize", "--config", cfg, "--backend", "synthetic-valley", "--out", str(tmp_path / "o")]) == 0


def test_run_config_is_frozen():
    cfg = parse_config(VALLEY)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.backend = "stokes"


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
        expected = f"config error: <config>: cannot read {path}: Is a directory"
    else:
        path.write_bytes(json.dumps(VALLEY).replace("valley", "vall\xe9e").encode("latin-1"))
        expected = f"config error: <config>: not UTF-8 text: {path}"
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [expected]


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VALLEY)
    out = tmp_path / "o"
    out.write_text("")
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: --out: ") and "File exists" in line


def test_landscape_synthetic_argmin(tmp_path):
    cfg = write_cfg(tmp_path, VALLEY)
    assert main(["landscape", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "landscape.csv")
    assert len(rows) == 26 * 26
    best = min(rows, key=lambda r: float(r["R"]))
    assert (float(best["f"]), float(best["b"])) == (2.0, 2.5)
    assert all(r["error"] == "" for r in rows)


def test_landscape_coarse_fine_consistency(tmp_path):
    # Coarse 5x5 and fine 13x11 sweeps of the same box locate the same
    # minimum to within one fine cell.
    def sweep(grid_doc, out):
        doc = {"backend": "synthetic-valley", "grid": grid_doc}
        cfg = write_cfg(tmp_path, doc, f"{out}.json")
        assert main(["landscape", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        rows = read_rows(tmp_path / out / "landscape.csv")
        best = min(rows, key=lambda r: float(r["R"]))
        return float(best["f"]), float(best["b"])

    coarse = sweep({"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.625, 0.625]}, "coarse")
    fine_steps = (2.5 / 12, 0.25)
    fine = sweep({"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": list(fine_steps)}, "fine")
    assert abs(coarse[0] - fine[0]) <= fine_steps[0] + 1e-9
    assert abs(coarse[1] - fine[1]) <= fine_steps[1] + 1e-9


def test_trace_json_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, VALLEY)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "j1")]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "j2")]) == 0
    assert (tmp_path / "j1" / "trace.json").read_bytes() == (tmp_path / "j2" / "trace.json").read_bytes()


def test_landscape_records_per_cell_failures(tmp_path):
    # Default Lz=2 channel: deep-b cells have no open passage and must be
    # recorded as failed rows while the sweep continues.
    doc = {
        "backend": "stokes",
        "grid": {"mins": [2.0, 3.2], "maxs": [2.2, 4.0], "steps": [0.1, 0.4]},
        "channel": {"nx": 24, "nz": 12},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["landscape", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "landscape.csv")
    failed = [r for r in rows if r["error"]]
    ok = [r for r in rows if not r["error"]]
    assert failed and ok
    assert all(float(r["b"]) >= 3.6 for r in failed)


def test_walk_outputs_and_fixed_slower(tmp_path):
    cfg = write_cfg(tmp_path, dict(VALLEY, walk={"start": [3.5, 3.5], "n_walks": 25, "max_steps": 3000}))
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "5"]) == 0
    summary = {r["mode"]: r for r in read_rows(tmp_path / "o" / "walk_summary.csv")}
    assert set(summary) == {"fixed", "free"}
    assert float(summary["fixed"]["mean_steps"]) > float(summary["free"]["mean_steps"])
    walks = read_rows(tmp_path / "o" / "walks.csv")
    assert len(walks) == 50


def test_walk_modes_coincide_one_dimensional(tmp_path):
    # Restrict the domain to one well so the argmin is unique.
    doc = dict(FICTITIOUS, grid={"mins": [-3.0], "maxs": [-1.5], "steps": [0.05]})
    cfg = write_cfg(tmp_path, doc)
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "walks.csv")
    fixed = [r["steps"] for r in rows if r["mode"] == "fixed"]
    free = [r["steps"] for r in rows if r["mode"] == "free"]
    assert fixed == free


def test_fixedpoint_outputs(tmp_path):
    cfg = write_cfg(tmp_path, FICTITIOUS)
    assert main(["fixedpoint", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    tables = read_rows(tmp_path / "o" / "fixedpoint_tables.csv")
    assert len(tables) == 101
    # j=0 column is exactly the objective.
    from mesopt.objectives import fictitious_1d

    for row in tables[::10]:
        assert float(row["v_j00"]) == fictitious_1d(float(row["x"]))
    history = read_rows(tmp_path / "o" / "fixedpoint_history.csv")
    assert len(history) == 12
    sharp = read_rows(tmp_path / "o" / "fixedpoint_sharpening.csv")
    xs = sorted({float(r["x"]) for r in sharp})
    assert xs == [-2.0, -1.0, 1.0]


def test_fixedpoint_requires_1d_backend(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VALLEY)
    assert main(["fixedpoint", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: backend: fixedpoint requires the fictitious-1d backend\n"


def test_walk_without_a_unique_argmin_is_a_config_error(tmp_path, capsys):
    # The three wells of the fictitious objective all reach 0 on the grid.
    cfg = write_cfg(tmp_path, FICTITIOUS)
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: walk: objective has no unique global argmin on the grid\n"
    assert not (tmp_path / "o" / "walks.csv").exists()


def test_exp1_start_of_the_wrong_dimension_is_a_config_error(tmp_path, capsys):
    # exp1's default starts are 2-d; on a 1-d grid each once became a row
    # with two start columns under a one-column header.
    cfg = write_cfg(tmp_path, FICTITIOUS)
    assert main(["exp1", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: exp1.starts: expected 1 coordinates per start\n"
    assert not (tmp_path / "o" / "exp1.csv").exists()


def test_exp1_table(tmp_path):
    doc = dict(VALLEY)
    doc["exp1"] = {"starts": [[2.2, 1.7], [3.9, 2.6]]}
    cfg = write_cfg(tmp_path, doc)
    assert main(["exp1", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "exp1.csv")
    assert len(rows) == 4
    assert {r["variant"] for r in rows} == {"fixed", "adaptive"}
    assert all(r["terminated"] == "converged" for r in rows)


def test_exp1_off_grid_start_gives_error_rows_in_result_order(tmp_path):
    doc = dict(VALLEY)
    doc["exp1"] = {"starts": [[9.0, 9.0], [2.2, 1.7]]}
    cfg = write_cfg(tmp_path, doc)
    assert main(["exp1", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "exp1.csv")
    assert [(r["start_f"], r["variant"], r["terminated"]) for r in rows] == [
        ("9.0", "fixed", "error"),
        ("9.0", "adaptive", "error"),
        ("2.2", "fixed", "converged"),
        ("2.2", "adaptive", "converged"),
    ]
    assert rows[0]["neighborhoods"] == rows[1]["neighborhoods"] != ""
    assert rows[0]["path_length"] == rows[0]["simulations"] == ""


def test_exp2_table(tmp_path):
    doc = {
        "backend": "synthetic-valley",
        "grid": {"mins": [1.5, 1.5], "maxs": [10.0, 4.5], "steps": [0.1, 0.1]},
        "exp2": {"start": [9.7, 3.9], "radii": [2], "max_cycles": 200},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["exp2", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = {r["variant"]: r for r in read_rows(tmp_path / "o" / "exp2.csv")}
    assert int(rows["rectangle"]["value_iterations"]) < int(rows["quadratic"]["value_iterations"])
    assert all(r["terminated"] == "converged" for r in rows.values())


def test_seed_override_changes_walks(tmp_path):
    cfg = write_cfg(tmp_path, VALLEY)
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "s1b"), "--seed", "1"]) == 0
    assert csv_body(tmp_path / "s1" / "walks.csv") != csv_body(tmp_path / "s2" / "walks.csv")
    assert csv_body(tmp_path / "s1" / "walks.csv") == csv_body(tmp_path / "s1b" / "walks.csv")


def test_backend_override(tmp_path):
    doc = dict(VALLEY, backend="stokes")
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["landscape", "--config", cfg, "--backend", "synthetic-valley", "--out", str(out)]) == 0
    rows = read_rows(out / "landscape.csv")
    assert float(min(rows, key=lambda r: float(r["R"]))["f"]) == 2.0


def test_walk_paths_are_walk_zero(tmp_path):
    # walk_paths.csv holds walk 0 of each mode: steps + 1 points, ending on
    # the valley minimum (2.0, 2.5) exactly when that walk hit.  A 3-step cap
    # censors walk 0; a 2000-step cap lets it hit.
    seen_hits = set()
    for max_steps in (3, 2000):
        walk = {"start": [3.5, 3.5], "n_walks": 4, "max_steps": max_steps}
        cfg = write_cfg(tmp_path, dict(VALLEY, walk=walk), f"walk{max_steps}.json")
        out = tmp_path / f"o{max_steps}"
        assert main(["walk", "--config", cfg, "--out", str(out)]) == 0
        walks = read_rows(out / "walks.csv")
        paths = read_rows(out / "walk_paths.csv")
        for mode in ("fixed", "free"):
            walk0 = next(r for r in walks if r["mode"] == mode and r["walk_id"] == "0")
            path = [r for r in paths if r["mode"] == mode]
            assert [int(r["step"]) for r in path] == list(range(int(walk0["steps"]) + 1))
            assert (float(path[0]["f"]), float(path[0]["b"])) == (3.5, 3.5)
            ends_on_target = (float(path[-1]["f"]), float(path[-1]["b"])) == (2.0, 2.5)
            assert ends_on_target == (walk0["hit"] == "true")
            seen_hits.add(walk0["hit"])
    assert seen_hits == {"true", "false"}


def test_unconverged_solve_is_a_backend_failure(tmp_path):
    doc = {
        "backend": "stokes",
        "grid": {"mins": [2.0, 2.0], "maxs": [2.1, 2.1], "steps": [0.1, 0.1]},
        "optimizer": {"start": [2.0, 2.0]},
        "channel": {"nx": 24, "nz": 12, "solver_tol": 1e-300, "max_iters": 1},
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["landscape", "--config", cfg, "--out", str(tmp_path / "l")]) == 3
    rows = read_rows(tmp_path / "l" / "landscape.csv")
    assert len(rows) == 4
    assert all(r["error"].startswith("FlowError: solve missed solver_tol") and r["R"] == "" for r in rows)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    trace = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert trace["terminated_reason"] == "error"
    assert trace["error"].startswith("FlowError: solve missed solver_tol")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: Exit code of each command on the shipped configs that run in seconds.
SMOKE_EXIT_CODES = {
    "valley.json": {"optimize": 0, "landscape": 0, "walk": 0, "fixedpoint": 2, "exp1": 0, "exp2": 2},
    "valley_exp2.json": {"optimize": 0, "landscape": 0, "walk": 0, "fixedpoint": 2, "exp1": 0, "exp2": 0},
    "fictitious.json": {"optimize": 0, "landscape": 0, "walk": 2, "fixedpoint": 0, "exp1": 2, "exp2": 2},
}


@pytest.mark.parametrize("config", sorted(SMOKE_EXIT_CODES))
def test_every_command_exits_with_a_documented_code(tmp_path, config):
    # Each command returns one of the codes the CLI documents and raises
    # nothing, whatever the config's backend and dimension.
    codes = {}
    for command in sorted(SMOKE_EXIT_CODES[config]):
        codes[command] = main([command, "--config", str(CONFIGS / config), "--out", str(tmp_path / command)])
        assert codes[command] in (0, 2, 3, 4)
    assert codes == SMOKE_EXIT_CODES[config]


#: sha256 of each body (``csv_body``) that `mesopt walk --config
#: configs/valley.json` writes: 100 walks per mode and walk 0's paths.
WALK_BODY_SHA256 = {
    "walks.csv": "e78bdb1b5969077352307ebbfa7abc26a1b6ef7ddf401813ec1013a1d7133f96",
    "walk_summary.csv": "05a9337fb06feb22f772c30edd620779f5a8247d2f2173231b326f5fc8a1804f",
    "walk_paths.csv": "bfb33388769cec9381219d3d1f159b79899ab9c9a5f7aedc6dedb7a165638752",
}


def test_shipped_walk_bodies_are_pinned(tmp_path):
    # Every step, hit and path of the shipped walk, against stored digests:
    # a rewrite of the sampler may change its speed, never a walk.
    out = tmp_path / "walk"
    assert main(["walk", "--config", str(CONFIGS / "valley.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(csv_body(out / name).encode()).hexdigest() for name in WALK_BODY_SHA256}
    assert digests == WALK_BODY_SHA256
