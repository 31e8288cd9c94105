import json
from pathlib import Path

import numpy as np
import pytest

from mesopt.grid import ParameterGrid
from mesopt.objectives import StokesObjective
from mesopt.reduction import OptimizerConfig, run_optimization
from mesopt.stokes import ChannelConfig

pytestmark = pytest.mark.slow


def test_stokes_backend_reaches_minimum_region():
    # Qualitative end-to-end run: from the remote start the loop must get
    # close to the channel landscape's minimum within 8 cycles.  A coarse
    # independent sweep over the same grid is the oracle for "minimum".
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    channel = ChannelConfig(Lx=4.0, Lz=6.0, nx=64, nz=48)

    sweep = StokesObjective(channel, grid=grid)
    coarse = {}
    for f in np.arange(1.5, 4.01, 0.5):
        for b in np.arange(1.5, 4.01, 0.5):
            coarse[(round(float(f), 1), round(float(b), 1))] = sweep((f, b))
    best_cell = min(coarse, key=coarse.get)
    best_val = coarse[best_cell]
    spread = max(coarse.values()) - best_val

    backend = StokesObjective(channel, grid=grid)
    trace = run_optimization(
        grid, grid.index_of((3.9, 2.6)), backend, OptimizerConfig(max_cycles=12)
    )
    assert trace.cycles
    visited = [c.center_value for c in trace.cycles[:8]] + [
        c.true_objective_at_argmin for c in trace.cycles[:8]
    ]
    # Within 8 cycles the path must close most of the gap to the sweep
    # minimum (within 10% of the coarse landscape's spread).
    assert min(visited) <= best_val + 0.1 * spread
    # And ground-truth accounting still matches the flow solver tally.
    assert trace.total_simulations == backend.calls


def test_shipped_config_path_solves_need_no_refinement(tmp_path, monkeypatch):
    # Every solve of configs/stokes_optimize.json runs in the envelope of
    # its grid's blades, with its faces from the envelope's table, and
    # meets solver_tol with the direct solve alone.  The exit code, center
    # path and solve count are pinned; the bytes are not, as the BLAS
    # thread count moves a field's last bits.
    from mesopt import objectives
    from mesopt.cli import main

    solve, solves = objectives.solve_stokes, []

    def recording(shape, channel, envelope=None, faces=None):
        field = solve(shape, channel, envelope=envelope, faces=faces)
        solves.append((envelope is not None, faces is not None, field.refinements))
        return field

    monkeypatch.setattr(objectives, "solve_stokes", recording)
    config = Path(__file__).resolve().parents[1] / "configs" / "stokes_optimize.json"
    assert main(["optimize", "--config", str(config), "--out", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    centers = [c["center"]["index"] for c in trace["cycles"]]
    assert centers == [[24, 11], [21, 8], [18, 5], [15, 2], [12, 0], [0, 0]]
    assert len(solves) == trace["total_simulations"] == 20
    assert solves == [(True, True, 0)] * len(solves)


def test_reward_sawtooth_along_one_grid_line_is_pinned():
    # Known fault: at 96x72 the binary blade mask aliases the channel reward.
    # Along the grid line b = 1.5 of configs/stokes_optimize.json, R rises
    # from 0.8647 at f = 1.5 to 1.1756 at f = 4.0, but with a sawtooth of
    # period about 3 grid steps on top: dR/df changes sign 14 times over the
    # 26 cells and the largest |second difference| is 0.121.  One f step
    # moves the trailing-edge camber by 0.03 against a row spacing of 0.083,
    # so the edge crosses a row every ~2.8 steps (ROADMAP item 1).  The
    # smallest |dR| is 2.2e-4, so the count does not hang on the last bits.
    # A sub-cell blade should lower this count; update it with that change.
    from mesopt.runconfig import load_config

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "stokes_optimize.json")
    backend = StokesObjective(cfg.channel, grid=cfg.grid)
    b_index = cfg.grid.index_of((1.5, 1.5))[1]
    rewards = np.array([backend(cfg.grid.theta((i, b_index))) for i in range(cfg.grid.shape[0])])
    steps = np.diff(rewards)
    assert rewards.size == 26
    assert int(np.sum(np.sign(steps[1:]) != np.sign(steps[:-1]))) == 14
