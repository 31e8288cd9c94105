"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Criterion 7 exercises the full-resolution channel sweep
and dominates the runtime (~5 min).  Its argmin clause expects the minimum at
the thinnest blade (smallest b) whose trailing edge comes closest to
horizontal.  The camber line e*x*(f - x) alone is horizontal there at f = 2,
but the surfaces of mesopt.geometry (c_up = 1/(2 b^2), c_lo = b/2, lower side
negated) add (b - 1)(c_lo - c_up)/2 to the slope of the trailing-edge
bisector: 0.44 at b = 2, more than the camber term's whole swing over the
sweep (e(f - 2) runs from -0.15 to +0.24).  The bisector is horizontal at
f = 0.54, below the bound f >= 1, so the expected cell is the sweep's
lowest f.  The solver agrees: at f = b = 2 (96x48) the mean exit pitch on
line E is 0.25 for inflow pitch -0.75, 0 and 0.75 alike, it stays positive
and falls monotonically as f goes from 2.8 down to 1.0, and at b = 2 R rises
monotonically with f (0.861 at f = 1.5 to 1.042 at f = 2.8 at 192x96), so
the sweep's argmin is (1.5, 2.0).  The test computes the expected cell from
AirfoilSpec rather than hard-coding it.
"""

import json
import time

import numpy as np
import pytest

from mesopt.cli import main
from mesopt.csvio import csv_body
from mesopt.geometry import AirfoilSpec
from mesopt.grid import ActionSet, ParameterGrid, make_neighborhood
from mesopt.metropolis import CoolingSchedule, hitting_time_experiment
from mesopt.objectives import (
    StokesObjective,
    SyntheticValleyObjective,
    fictitious_1d,
    reward_R1,
    reward_R2,
)
from mesopt.reduction import OptimizerConfig, run_optimization
from mesopt.stokes import ChannelConfig, sample_line, solve_stokes
from mesopt.surrogate import fit_surrogate
from mesopt.value import fixed_point_iterates, value_fixed_point
from oracles import _local_argmins, discounted_power_sum, mc_value_estimate, transition_matrix


def report(n, name, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n:02d} {name}: {verdict} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget"
    assert ok, line


def test_criterion_01_surrogate_exactness():
    t0 = time.time()
    rng = np.random.default_rng(11)
    center_ok = True
    for _ in range(100):
        center = tuple(rng.normal(size=2))
        value = float(rng.normal(scale=10.0))
        samples = [((center[0] + dx, center[1] + dy), float(rng.normal()))
                   for dx, dy in [(0.4, 0.1), (-0.2, 0.5), (0.3, -0.3)]]
        model = fit_surrogate(center, value, samples)
        center_ok &= model(center) == value

    coeff_ok = True
    offsets = [(0.4, 0.4), (-0.4, 0.4), (0.4, -0.4), (-0.4, -0.4), (0.2, 0.0)]
    for _ in range(100):
        center = tuple(rng.normal(size=2))
        coeffs = rng.normal(scale=2.0, size=5)
        c0 = float(rng.normal())

        def f(x, y):
            return c0 + coeffs @ np.array([x * x, y * y, x * y, x, y])

        samples = [((center[0] + dx, center[1] + dy), f(dx, dy)) for dx, dy in offsets]
        model = fit_surrogate(center, c0, samples)
        coeff_ok &= bool(np.all(np.abs(model.coeffs - coeffs) < 1e-8))
    report(1, "surrogate-exactness", center_ok and coeff_ok, time.time() - t0, 1.0)


def test_criterion_02_kernel_invariants():
    t0 = time.time()
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(1000):
        center = tuple(int(c) for c in rng.integers(0, 11, size=2))
        radii = tuple(int(r) for r in rng.integers(0, 3, size=2))
        hood = make_neighborhood(grid, center, radii)
        values = rng.normal(scale=4.0, size=hood.size)
        actions = ActionSet(2, {0, 1} if trial % 4 else {trial % 2})
        for beta in (0.0, 0.5, 5.0, 50.0):
            matrix = transition_matrix(values, hood, actions, beta)
            ok &= bool(np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-12))
            ok &= bool(np.all(matrix >= 0.0))
            for i, s in enumerate(hood.members):
                row = matrix[i]
                for j in np.flatnonzero(row):
                    delta = tuple(b - a for a, b in zip(s, hood.members[j]))
                    ok &= delta in actions.moves
                # downhill ordering among reachable targets
                reachable = [(values[j], row[j]) for j in np.flatnonzero(row)]
                reachable.sort(key=lambda t: t[0])
                probs = [p for _, p in reachable]
                ok &= all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))
            if not ok:
                break
        if not ok:
            break
    report(2, "kernel-invariants", ok, time.time() - t0, 5.0)


def test_criterion_03_gamma_zero_and_bounds():
    t0 = time.time()
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    hood = make_neighborhood(grid, (5, 5), (1, 1))
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(25):
        rhat = rng.normal(scale=5.0, size=hood.size)
        t = value_fixed_point(rhat, hood, ActionSet(2), 0.0, CoolingSchedule(), tol_v=1e-6, max_j=60)
        ok &= bool(np.array_equal(t.values, rhat))
        t9 = value_fixed_point(rhat, hood, ActionSet(2), 0.9, CoolingSchedule(), tol_v=1e-6, max_j=12)
        lo = min(rhat) / 0.1
        hi = max(rhat) / 0.1
        ok &= all(lo - 1e-9 <= v <= hi + 1e-9 for v in t9.values)
    report(3, "gamma-zero-identity-and-bounds", ok, time.time() - t0, 1.0)


def test_criterion_04_mc_oracle_equivalence():
    t0 = time.time()
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    hood = make_neighborhood(grid, (5, 5), (2, 2))
    rng = np.random.default_rng(0)
    rhat = rng.normal(size=hood.size)
    gamma, beta, horizon = 0.9, 0.8, 60
    matrix = transition_matrix(rhat, hood, ActionSet(2), beta)
    exact = discounted_power_sum(matrix, rhat, gamma, horizon)
    est, se = mc_value_estimate(
        rhat, hood, ActionSet(2), gamma, beta, n_walks=10_000, horizon=horizon, seed=42
    )
    devs = np.abs(est - exact) / np.maximum(se, 1e-15)
    ok = max(devs) <= 3.0
    report(4, "mc-matches-matrix-power", ok, time.time() - t0, 30.0,
           f"max deviation {max(devs):.2f} standard errors over {hood.size} states")


def test_criterion_05_well_sharpening():
    t0 = time.time()
    grid = ParameterGrid(mins=(-3.0,), maxs=(2.0,), steps=(0.05,))
    hood = make_neighborhood(grid, (grid.shape[0] // 2,), (grid.shape[0],))
    rhat = np.array([fictitious_1d(grid.theta(p)[0]) for p in hood.members])
    iterates, _, _ = fixed_point_iterates(
        rhat, hood, ActionSet(1), 0.9, CoolingSchedule(t0=1e-3), 30
    )
    r = iterates[0]
    argmins_match = _local_argmins(iterates[-1]) == _local_argmins(r)
    monotone = True
    for i in _local_argmins(r):
        if not 0 < i < len(r) - 1:
            continue
        d2 = [it[i - 1] - 2 * it[i] + it[i + 1] for it in iterates[:11]]
        monotone &= all(b >= a - 1e-12 for a, b in zip(d2, d2[1:]))
    report(5, "well-sharpening", argmins_match and monotone, time.time() - t0, 10.0,
           f"argmins {[round(grid.theta((i,))[0], 2) for i in _local_argmins(iterates[-1])]}")


def test_criterion_06_restricted_walk_slower():
    t0 = time.time()
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    values = {}
    backend = SyntheticValleyObjective()
    for p in grid.points():
        values[p] = backend(grid.theta(p))
    start = grid.index_of((3.5, 3.5))
    walk = dict(max_steps=5000, t0=1.0)  # the walk command's defaults
    free = hitting_time_experiment(values, grid, start, "free", n_walks=100, seed=2024, **walk)
    fixed = hitting_time_experiment(values, grid, start, "fixed", n_walks=100, seed=2024, **walk)
    ok = fixed.mean_steps > free.mean_steps
    report(6, "restricted-walk-slower", ok, time.time() - t0, 60.0,
           f"mean steps fixed {fixed.mean_steps:.0f} vs free {free.mean_steps:.0f}")


@pytest.mark.slow
def test_criterion_07_channel_landscape():
    t0 = time.time()
    # Control: empty default channel at the default inflow.
    control_cfg = ChannelConfig()
    control = sample_line(solve_stokes(None, control_cfg), control_cfg)
    r1c, r2c = reward_R1(control), reward_R2(control)
    control_ok = abs(r1c - 0.36) <= 1e-6 and r2c <= 1e-6

    # Full sweep at the declared acceptance channel: Lz = 3 is the tightest
    # cascade spacing that keeps an open passage at every cell, since the
    # thickest profile in the sweep (b = 4.0) is 2.88 chords thick and must
    # fit inside the period.  The sweep is configs/stokes_landscape.json's
    # grid and channel, so its solves factor that grid's blade envelope as
    # `mesopt landscape` does; the control above solves with an empty strip.
    sweep_cfg = ChannelConfig(Lx=4.0, Lz=3.0, nx=192, nz=96)
    obj = StokesObjective(sweep_cfg, grid=ParameterGrid(mins=(1.5, 2.0), maxs=(2.8, 4.0), steps=(0.1, 0.2)))
    fs = np.round(np.arange(1.5, 2.8 + 1e-9, 0.1), 10)
    bs = np.round(np.arange(2.0, 4.0 + 1e-9, 0.2), 10)
    cells = {}
    bounds_ok = True
    for f in fs:
        for b in bs:
            r1, r2, r = obj.components((f, b))
            cells[(float(f), float(b))] = r
            bounds_ok &= 0.0 <= r1 <= 1.0 and r2 >= 0.0
    (fmin, bmin), rmin = min(cells.items(), key=lambda kv: kv[1])
    # Expected argmin: the thinnest blade (smallest b) whose trailing edge
    # comes closest to horizontal.  A surface sqrt(x) * c * (x - 1)(x - b)
    # has slope c * (1 - b) at x = 1 and the camber line e*x*(f - x) adds
    # e * (f - 2) to both sides, so with c = c_up above and c = -c_lo below
    # the bisector is horizontal where f = 2 + (b - 1)(c_up - c_lo)/(2e).
    spec = AirfoilSpec(f=float(fs[0]), b=float(bs[0]), e=sweep_cfg.airfoil_e)
    f_flat = 2.0 + (spec.b - 1.0) * (spec.c_up - spec.c_lo) / (2.0 * spec.e)
    f_exp, b_exp = float(fs[np.argmin(np.abs(fs - f_flat))]), spec.b
    cheb = max(round(abs(fmin - f_exp) / 0.1), round(abs(bmin - b_exp) / 0.2))
    argmin_ok = cheb <= 2
    elapsed = time.time() - t0
    report(
        7,
        "channel-landscape",
        control_ok and bounds_ok and argmin_ok,
        elapsed,
        1800.0,
        f"argmin ({fmin:.1f}, {bmin:.1f}) R={rmin:.3f}, expected ({f_exp:.1f}, "
        f"{b_exp:.1f}), Chebyshev {cheb} cells; "
        f"control R1={r1c:.8f} R2={r2c:.2e}; every-cell bounds "
        f"{'ok' if bounds_ok else 'violated'}",
    )


def test_criterion_08_experiment1_trend():
    t0 = time.time()
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    starts = [(2.2, 1.7), (2.2, 2.6), (3.0, 1.7), (3.0, 2.6), (3.9, 1.7), (3.9, 2.6)]
    wins = 0
    budget = {"adaptive": 0, "fixed": 0}
    for s in starts:
        lengths = {}
        for variant, mode in (("fixed", "off"), ("adaptive", "alternating")):
            backend = SyntheticValleyObjective()
            trace = run_optimization(
                grid, grid.index_of(s), backend, OptimizerConfig(freeze_mode=mode)
            )
            lengths[variant] = trace.path_length
            budget[variant] += trace.total_simulations
        wins += lengths["adaptive"] <= lengths["fixed"]
    ok = wins >= 4 and budget["adaptive"] < budget["fixed"]
    report(8, "experiment1-trend", ok, time.time() - t0, 60.0,
           f"adaptive<=fixed in {wins}/6 starts, budgets {budget['adaptive']} vs {budget['fixed']}")


def test_criterion_09_experiment2_trend():
    t0 = time.time()
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(10.0, 4.5), steps=(0.1, 0.1))
    start = grid.index_of((9.7, 3.9))
    iters = {}
    for variant, mode in (("quadratic", "off"), ("rectangle", "alternating")):
        backend = SyntheticValleyObjective()
        trace = run_optimization(
            grid, start, backend,
            OptimizerConfig(freeze_mode=mode, initial_radii=(1, 1), max_cycles=200),
        )
        assert trace.terminated_reason == "converged"
        iters[variant] = trace.total_value_iterations()
    ok = iters["rectangle"] < iters["quadratic"]
    report(9, "experiment2-trend", ok, time.time() - t0, 120.0,
           f"fixed-point iterations rectangle {iters['rectangle']} vs quadratic {iters['quadratic']}")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "synthetic-valley",
        "seed": 7,
        "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.1, 0.1]},
        "optimizer": {"start": [3.9, 1.7]},
    }))
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    ok = csv_body(tmp_path / "a" / "trace.csv") == csv_body(tmp_path / "b" / "trace.csv")
    report(10, "cli-determinism", ok, time.time() - t0, 10.0)


@pytest.mark.slow
def test_criterion_11_solver_physics():
    t0 = time.time()
    from mesopt.geometry import AirfoilSpec, build_airfoil

    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    cfg1 = ChannelConfig(nx=128, nz=64)
    field1 = solve_stokes(shape, cfg1)
    inflow_mag = np.hypot(*cfg1.inflow)
    div_ok = field1.converged and np.abs(field1.divergence(cfg1)).max() <= 1e-6 * inflow_mag

    cfg2 = ChannelConfig(nx=128, nz=64, inflow=(2.0, 1.5))
    field2 = solve_stokes(shape, cfg2)
    p1, p2 = sample_line(field1, cfg1), sample_line(field2, cfg2)
    scale = np.abs(p2.u1).max()
    lin_ok = (
        np.abs(p2.u1 - 2 * p1.u1).max() <= 1e-6 * scale
        and np.abs(p2.u2 - 2 * p1.u2).max() <= 1e-6 * scale
    )
    r1_ok = abs(reward_R1(p2) - reward_R1(p1)) <= 1e-8
    report(11, "solver-physics", div_ok and lin_ok and r1_ok, time.time() - t0, 300.0,
           f"divergence {np.abs(field1.divergence(cfg1)).max():.2e}, "
           f"R1 shift {abs(reward_R1(p2) - reward_R1(p1)):.2e}")
