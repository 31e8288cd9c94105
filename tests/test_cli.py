import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mesopt.cli import main
from mesopt.csvio import csv_body

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
    rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = read_rows(tmp_path / "o" / "trace.csv")
    assert rows[0]["cycle"] == "0"
    assert {"f", "b", "R", "simulations", "frozen_dims", "radii_f", "radii_b"} <= set(rows[0])
    doc = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["terminated_reason"] == "converged"
    assert doc["total_simulations"] == sum(c["simulations_this_cycle"] for c in doc["cycles"])
    # Per-cycle value tables referenced from the trace exist.
    refs = [c["value_table_ref"] for c in doc["cycles"]]
    assert all(r and (tmp_path / "o" / r).exists() for r in refs)


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
    assert "backend failure" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path):
    bad = {"backend": "synthetic-valley", "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0]}}
    cfg = write_cfg(tmp_path, bad)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["optimize", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2
    cfg = write_cfg(tmp_path, VALLEY, "ok.json")
    assert main(["optimize", "--config", cfg, "--backend", "quantum", "--out", str(tmp_path / "o")]) == 2


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


def test_fixedpoint_requires_1d_backend(tmp_path):
    cfg = write_cfg(tmp_path, VALLEY)
    assert main(["fixedpoint", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_exp1_table(tmp_path):
    doc = dict(VALLEY)
    doc["exp1"] = {"starts": [[2.2, 1.7], [3.9, 2.6]]}
    cfg = write_cfg(tmp_path, doc)
    assert main(["exp1", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = read_rows(tmp_path / "o" / "exp1.csv")
    assert len(rows) == 4
    assert {r["variant"] for r in rows} == {"fixed", "adaptive"}
    assert all(r["terminated"] == "converged" for r in rows)


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
