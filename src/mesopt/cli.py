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
from .geometry import GeometryError
from .grid import ActionSet, GridError, ParameterGrid, make_neighborhood
from .metropolis import hitting_time_experiment
from .objectives import BACKENDS, CountingObjective, StokesObjective
from .reduction import OptimizationTrace, run_optimization
from .runconfig import ConfigError, RunConfig, load_config
from .stokes import FlowError
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
        return StokesObjective(cfg.channel, e=cfg.airfoil_e, n_shape_samples=cfg.n_shape_samples)
    return backend()


def _require_backend_dim(cfg: RunConfig) -> None:
    backend_d = BACKENDS[cfg.backend].d
    if cfg.grid.d != backend_d:
        raise ConfigError("grid", f"backend {cfg.backend!r} needs a {backend_d}-d grid")


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


def _trace_json(trace: OptimizationTrace, grid: ParameterGrid, cfg: RunConfig, table_refs):
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
                "value_iterations": c.value_iterations,
                "value_converged": c.value_converged,
                "value_table_ref": table_refs.get(c.n),
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
        "optimizer": {
            "gamma": cfg.optimizer.gamma,
            "epsilon": cfg.optimizer.epsilon,
            "initial_radii": list(cfg.optimizer.initial_radii),
            "tol_v": cfg.optimizer.tol_v,
            "max_cycles": cfg.optimizer.max_cycles,
            "max_j": cfg.optimizer.max_j,
            "freeze_mode": cfg.optimizer.freeze_mode,
            "cooling": {"kind": cfg.optimizer.schedule.kind, "t0": cfg.optimizer.schedule.t0},
        },
        "terminated_reason": trace.terminated_reason,
        "error": trace.error,
        "total_simulations": trace.total_simulations,
        "cycles": cycles,
    }


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    _require_backend_dim(cfg)
    backend = build_backend(cfg)
    grid = cfg.grid
    try:
        start = grid.index_of(cfg.start)
    except GridError as exc:
        print(f"config error: optimizer.start: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    trace = run_optimization(grid, start, backend, cfg.optimizer, keep_value_tables=True)

    names = dim_names(grid.d)
    table_refs = {}
    for c in trace.cycles:
        if c.value_table is None:
            continue
        ref = f"values_cycle_{c.n:03d}.csv"
        table_refs[c.n] = ref
        write_csv(
            out / ref,
            names + ["V"],
            (
                [*grid.theta(p), v]
                for p, v in c.value_table.values.items()
            ),
            comment=f"mesopt {__version__} optimize value table cycle {c.n}",
        )
    write_csv(
        out / "trace.csv",
        ["cycle"] + names + ["R", "simulations", "frozen_dims"] + [f"radii_{n}" for n in names],
        _trace_rows(trace, grid),
        comment=f"mesopt {__version__} optimize",
    )
    (out / "trace.json").write_text(
        json.dumps(_trace_json(trace, grid, cfg, table_refs), indent=2, sort_keys=True) + "\n"
    )

    if trace.terminated_reason == "converged":
        return EXIT_OK
    if trace.terminated_reason == "max_cycles":
        return EXIT_MAX_CYCLES
    print(f"optimization failed: {trace.error}", file=sys.stderr)
    return EXIT_BACKEND


# --- landscape ---------------------------------------------------------------

def cmd_landscape(cfg: RunConfig, out: Path) -> int:
    _require_backend_dim(cfg)
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
        except Exception as exc:  # recorded per-row, sweep continues
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
    _require_backend_dim(cfg)
    backend = build_backend(cfg)
    grid = cfg.grid
    names = dim_names(grid.d)
    values = {p: backend(grid.theta(p)) for p in grid.points()}
    try:
        start = grid.index_of(cfg.walk.start)
    except GridError as exc:
        print(f"config error: walk.start: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stats = {}
    for mode in ("fixed", "free"):
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
        print("config error: fixedpoint requires the fictitious-1d backend", file=sys.stderr)
        return EXIT_CONFIG
    _require_backend_dim(cfg)
    backend = build_backend(cfg)
    grid = cfg.grid
    # One neighborhood spanning the whole 1-d grid.
    center = (grid.shape[0] // 2,)
    hood = make_neighborhood(grid, center, (max(grid.shape),))
    rhat = {p: backend(grid.theta(p)) for p in hood.members}
    fp = cfg.fixedpoint
    iterates, deltas, betas = fixed_point_iterates(
        rhat, hood, ActionSet(1), fp.gamma, fp.schedule, fp.iterations, fp.tol_v
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


def cmd_exp1(cfg: RunConfig, out: Path) -> int:
    _require_backend_dim(cfg)
    grid = cfg.grid
    rows = []
    for start_theta in cfg.exp1.starts:
        try:
            start = grid.index_of(start_theta)
        except GridError as exc:
            rows.append([*start_theta, "adaptive", "error", None, None, None, str(exc)])
            rows.append([*start_theta, "fixed", "error", None, None, None, str(exc)])
            continue
        adaptive_mode = cfg.optimizer.freeze_mode
        if adaptive_mode == "off":
            adaptive_mode = "alternating"
        for variant, mode in (("fixed", "off"), ("adaptive", adaptive_mode)):
            backend = build_backend(cfg)
            opt = dataclasses.replace(cfg.optimizer, freeze_mode=mode)
            trace = run_optimization(grid, start, backend, opt)
            rows.append(
                [
                    *start_theta,
                    variant,
                    trace.terminated_reason,
                    trace.path_length,
                    trace.total_simulations,
                    trace.total_value_iterations(),
                    _box_sequence(trace) if trace.cycles else trace.error,
                ]
            )
    names = dim_names(grid.d)
    write_csv(
        out / "exp1.csv",
        [f"start_{n}" for n in names]
        + ["variant", "terminated", "path_length", "simulations", "value_iterations", "neighborhoods"],
        rows,
        comment=f"mesopt {__version__} exp1",
    )
    return EXIT_OK


def cmd_exp2(cfg: RunConfig, out: Path) -> int:
    _require_backend_dim(cfg)
    grid = cfg.grid
    try:
        start = grid.index_of(cfg.exp2.start)
    except GridError as exc:
        print(f"config error: exp2.start: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for radius in cfg.exp2.radii:
        for variant, mode in (("quadratic", "off"), ("rectangle", "alternating")):
            backend = build_backend(cfg)
            opt = dataclasses.replace(
                cfg.optimizer,
                initial_radii=tuple(radius for _ in range(grid.d)),
                max_cycles=cfg.exp2.max_cycles,
                freeze_mode=mode,
            )
            trace = run_optimization(grid, start, backend, opt)
            rows.append(
                [
                    radius,
                    variant,
                    trace.terminated_reason,
                    trace.path_length,
                    trace.total_value_iterations(),
                    trace.total_simulations,
                    _box_sequence(trace) if trace.cycles else trace.error,
                ]
            )
    write_csv(
        out / "exp2.csv",
        ["radius", "variant", "terminated", "path_length", "value_iterations", "simulations", "neighborhoods"],
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
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed", "must be non-negative")
            cfg.seed = args.seed
        if args.backend is not None:
            if args.backend not in BACKENDS:
                raise ConfigError("--backend", f"unknown backend {args.backend!r}")
            cfg.backend = args.backend
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FlowError, GeometryError, GridError) as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
