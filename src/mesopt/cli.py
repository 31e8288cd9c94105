"""Command-line driver for the experiments.

Every command reads one JSON config, writes CSV (and JSON trace) artifacts
into --out, and is deterministic given config + seed.  Exit codes: 0 on
success/convergence, 2 for config validation errors, 3 for backend
failures, 4 when an optimization hits its cycle cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import write_csv
from .grid import ActionSet, GridError, ParameterGrid, make_neighborhood
from .metropolis import NoUniqueArgmin, hitting_time_experiment
from .objectives import BACKEND_FAILURES, BACKENDS, CountingObjective, StokesObjective
from .reduction import OptimizationTrace, run_optimization
from .runconfig import ConfigError, RunConfig, load_config
from .value import fixed_point_iterates

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_MAX_CYCLES = 4

TRACE_SCHEMA_VERSION = 1


def dim_names(d: int) -> list[str]:
    if d == 1:
        return ["x"]
    if d == 2:
        return ["f", "b"]
    return [f"p{i}" for i in range(d)]


def build_backend(cfg: RunConfig) -> CountingObjective:
    backend = BACKENDS[cfg.backend]
    if backend is StokesObjective:
        return StokesObjective(cfg.channel, grid=cfg.grid)
    return backend()


def _grid_index(grid: ParameterGrid, theta, path: str):
    """Index of the configured point ``theta``; off the grid is a config error."""
    try:
        return grid.index_of(theta)
    except GridError as exc:
        raise ConfigError(path, str(exc)) from None


# --- optimize ---------------------------------------------------------------

def _trace_rows(trace: OptimizationTrace, grid: ParameterGrid):
    names = dim_names(grid.d)
    for c in trace.cycles:
        theta = grid.theta(c.center)
        yield (
            [c.n]
            + [theta[i] for i in range(grid.d)]
            + [
                c.center_value,
                c.simulations_this_cycle,
                ";".join(names[i] for i in c.frozen_dims),
            ]
            + list(c.radii)
        )


def _value_table_ref(n: int) -> str:
    return f"values_cycle_{n:03d}.csv"


def _trace_json(trace: OptimizationTrace, grid: ParameterGrid, cfg: RunConfig):
    def point(p):
        return {"index": list(p), "theta": list(grid.theta(p))}

    cycles = []
    for c in trace.cycles:
        cycles.append(
            {
                "n": c.n,
                "center": point(c.center),
                "center_value": c.center_value,
                "radii": list(c.radii),
                "active_dims": list(c.active_dims),
                "frozen_dims": list(c.frozen_dims),
                "surrogate": {
                    "center": list(c.surrogate.center),
                    "center_value": c.surrogate.center_value,
                    "coeffs": [float(v) for v in c.surrogate.coeffs],
                },
                "sample_points": [list(p) for p in c.sample_points],
                "value_iterations": c.value_table.iterations,
                "value_converged": c.value_table.converged,
                "value_table_ref": _value_table_ref(c.n),
                "argmin": point(c.argmin),
                "true_objective_at_argmin": c.true_objective_at_argmin,
                "simulations_this_cycle": c.simulations_this_cycle,
            }
        )
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "backend": cfg.backend,
        "seed": cfg.seed,
        "grid": {"mins": list(grid.mins), "maxs": list(grid.maxs), "steps": list(grid.steps)},
        "optimizer": dataclasses.asdict(cfg.optimizer),
        "terminated_reason": trace.terminated_reason,
        "error": trace.error,
        "total_simulations": trace.total_simulations,
        "cycles": cycles,
    }


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    grid = cfg.grid
    start = _grid_index(grid, cfg.start, "optimizer.start")
    backend = build_backend(cfg)
    trace = run_optimization(grid, start, backend, cfg.optimizer)

    names = dim_names(grid.d)
    for c in trace.cycles:
        write_csv(
            out / _value_table_ref(c.n),
            names + ["V"],
            ([*grid.theta(p), v] for p, v in zip(c.value_table.members, c.value_table.values)),
            comment=f"mesopt {__version__} optimize value table cycle {c.n}",
        )
    write_csv(
        out / "trace.csv",
        ["cycle"] + names + ["R", "simulations", "frozen_dims"] + [f"radii_{n}" for n in names],
        _trace_rows(trace, grid),
        comment=f"mesopt {__version__} optimize",
    )
    (out / "trace.json").write_text(
        json.dumps(_trace_json(trace, grid, cfg), indent=2, sort_keys=True) + "\n"
    )

    if trace.terminated_reason == "converged":
        return EXIT_OK
    if trace.terminated_reason == "max_cycles":
        return EXIT_MAX_CYCLES
    print(f"optimization failed: {trace.error}", file=sys.stderr)
    return EXIT_BACKEND


# --- landscape ---------------------------------------------------------------

def cmd_landscape(cfg: RunConfig, out: Path) -> int:
    backend = build_backend(cfg)
    grid = cfg.grid
    names = dim_names(grid.d)
    rows = []
    failures = 0
    for p in grid.points():
        theta = grid.theta(p)
        try:
            r1, r2, r = backend.components(theta)
            rows.append([*theta, r1, r2, r, None])
        except BACKEND_FAILURES as exc:  # recorded per-row, sweep continues
            failures += 1
            rows.append([*theta, None, None, None, f"{type(exc).__name__}: {exc}"])
    write_csv(
        out / "landscape.csv",
        names + ["R1", "R2", "R", "error"],
        rows,
        comment=f"mesopt {__version__} landscape backend={cfg.backend}",
    )
    if failures == len(rows):
        print("landscape: every cell failed", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


# --- walk --------------------------------------------------------------------

def cmd_walk(cfg: RunConfig, out: Path) -> int:
    grid = cfg.grid
    start = _grid_index(grid, cfg.walk.start, "walk.start")
    backend = build_backend(cfg)
    names = dim_names(grid.d)
    values = {p: backend(grid.theta(p)) for p in grid.points()}

    stats = {}
    for mode in ("fixed", "free"):
        try:
            stats[mode] = hitting_time_experiment(
                values,
                grid,
                start,
                mode,
                n_walks=cfg.walk.n_walks,
                seed=cfg.seed,
                max_steps=cfg.walk.max_steps,
                t0=cfg.walk.t0,
            )
        except NoUniqueArgmin as exc:  # the grid and objective give the walk no target
            raise ConfigError("walk", str(exc)) from None
    write_csv(
        out / "walks.csv",
        ["mode", "walk_id", "steps", "hit"],
        (
            [mode, i, s, h]
            for mode in ("fixed", "free")
            for i, (s, h) in enumerate(zip(stats[mode].steps, stats[mode].hits))
        ),
        comment=f"mesopt {__version__} walk",
    )
    write_csv(
        out / "walk_summary.csv",
        ["mode", "walks", "hits", "mean_steps", "median_steps"],
        (
            [mode, len(st.steps), sum(st.hits), st.mean_steps, st.median_steps]
            for mode, st in sorted(stats.items())
        ),
        comment=f"mesopt {__version__} walk summary",
    )
    # Walk 0's path per mode, for plotting the walk trajectories.
    write_csv(
        out / "walk_paths.csv",
        ["mode", "step"] + names + ["value"],
        (
            [mode, step, *grid.theta(p), values[p]]
            for mode in ("fixed", "free")
            for step, p in enumerate(stats[mode].path)
        ),
        comment=f"mesopt {__version__} walk sample paths",
    )
    return EXIT_OK


# --- fixedpoint ----------------------------------------------------------------

def _local_argmins(vals: np.ndarray) -> list[int]:
    return [
        i
        for i in range(len(vals))
        if (i == 0 or vals[i] <= vals[i - 1])
        and (i == len(vals) - 1 or vals[i] <= vals[i + 1])
    ]


def cmd_fixedpoint(cfg: RunConfig, out: Path) -> int:
    if cfg.backend != "fictitious-1d":
        raise ConfigError("backend", "fixedpoint requires the fictitious-1d backend")
    backend = build_backend(cfg)
    grid = cfg.grid
    # One neighborhood spanning the whole 1-d grid.
    center = (grid.shape[0] // 2,)
    hood = make_neighborhood(grid, center, (max(grid.shape),))
    rhat = np.array([backend(grid.theta(p)) for p in hood.members])
    fp = cfg.fixedpoint
    iterates, deltas, betas = fixed_point_iterates(
        rhat, hood, ActionSet(1), fp.gamma, fp.cooling, fp.iterations
    )

    xs = [grid.theta(p)[0] for p in hood.members]
    write_csv(
        out / "fixedpoint_tables.csv",
        ["x"] + [f"v_j{j:02d}" for j in range(len(iterates))],
        ([x] + [float(it[i]) for it in iterates] for i, x in enumerate(xs)),
        comment=f"mesopt {__version__} fixedpoint tables",
    )
    write_csv(
        out / "fixedpoint_history.csv",
        ["j", "sup_delta", "beta_j"],
        ([j + 1, d, b] for j, (d, b) in enumerate(zip(deltas, betas))),
        comment=f"mesopt {__version__} fixedpoint history",
    )
    argmins = _local_argmins(iterates[0])
    write_csv(
        out / "fixedpoint_sharpening.csv",
        ["j", "x", "second_diff"],
        (
            [j, xs[i], float(it[i - 1] - 2 * it[i] + it[i + 1])]
            for j, it in enumerate(iterates)
            for i in argmins
            if 0 < i < len(xs) - 1
        ),
        comment=f"mesopt {__version__} fixedpoint sharpening",
    )
    converged = deltas and deltas[-1] < fp.tol_v
    if not converged:
        print(
            f"fixedpoint: not converged after {fp.iterations} iterations "
            f"(last sup delta {deltas[-1]:.3e}); data emitted",
            file=sys.stderr,
        )
    return EXIT_OK


# --- experiments ----------------------------------------------------------------

def _box_sequence(trace: OptimizationTrace) -> str:
    return ";".join("x".join(str(2 * r + 1) for r in c.radii) for c in trace.cycles)


def _freeze_mode_runs(cfg: RunConfig, start, variants: tuple[str, str], **overrides):
    """(variant, summary) of two runs from ``start``: freeze mode "off", then "alternating".

    Each run gets a fresh backend; ``overrides`` replace optimizer settings.
    """
    for variant, mode in zip(variants, ("off", "alternating")):
        opt = dataclasses.replace(cfg.optimizer, freeze_mode=mode, **overrides)
        trace = run_optimization(cfg.grid, start, build_backend(cfg), opt)
        yield variant, {
            "terminated": trace.terminated_reason,
            "path_length": trace.path_length,
            "simulations": trace.total_simulations,
            "value_iterations": trace.total_value_iterations(),
            "neighborhoods": _box_sequence(trace) if trace.cycles else trace.error,
        }


def cmd_exp1(cfg: RunConfig, out: Path) -> int:
    grid = cfg.grid
    if any(len(s) != grid.d for s in cfg.exp1.starts):
        # Checked here, not in parse_config: the default starts are 2-d.
        raise ConfigError("exp1.starts", f"expected {grid.d} coordinates per start")
    columns = ["terminated", "path_length", "simulations", "value_iterations", "neighborhoods"]
    variants = ("fixed", "adaptive")
    rows = []
    for start_theta in cfg.exp1.starts:
        try:
            start = grid.index_of(start_theta)
        except GridError as exc:
            runs = [(v, {"terminated": "error", "neighborhoods": str(exc)}) for v in variants]
        else:
            runs = _freeze_mode_runs(cfg, start, variants)
        rows.extend([*start_theta, v] + [summary.get(k) for k in columns] for v, summary in runs)
    write_csv(
        out / "exp1.csv",
        [f"start_{n}" for n in dim_names(grid.d)] + ["variant"] + columns,
        rows,
        comment=f"mesopt {__version__} exp1",
    )
    return EXIT_OK


def cmd_exp2(cfg: RunConfig, out: Path) -> int:
    grid = cfg.grid
    start = _grid_index(grid, cfg.exp2.start, "exp2.start")
    columns = ["terminated", "path_length", "value_iterations", "simulations", "neighborhoods"]
    rows = []
    for radius in cfg.exp2.radii:
        runs = _freeze_mode_runs(
            cfg,
            start,
            ("quadratic", "rectangle"),
            initial_radii=tuple(radius for _ in range(grid.d)),
            max_cycles=cfg.exp2.max_cycles,
        )
        rows.extend([radius, v] + [summary[k] for k in columns] for v, summary in runs)
    write_csv(
        out / "exp2.csv",
        ["radius", "variant"] + columns,
        rows,
        comment=f"mesopt {__version__} exp2",
    )
    return EXIT_OK


# --- entry point ----------------------------------------------------------------

COMMANDS = {
    "optimize": cmd_optimize,
    "landscape": cmd_landscape,
    "walk": cmd_walk,
    "fixedpoint": cmd_fixedpoint,
    "exp1": cmd_exp1,
    "exp2": cmd_exp2,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mesopt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mesopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--backend", default=None, help="override the config backend")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = load_config(args.config, seed=args.seed, backend=args.backend)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out", str(exc)) from None
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BACKEND_FAILURES as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
