"""The benchmark workloads and the output checks they share.

Each workload builds its op inputs from the workload seed, turns one input
into a timed call of mesopt's public API, and summarizes what the call
returned into a small JSON-able record that the checks and the stored
reference outputs compare.  Nothing here imports mesopt at module import:
``import_mesopt`` puts this checkout's ``src`` first on the path and fails
when it is missing, so the benchmark never measures some other copy.

Why each workload exists, and what one op is, is in README.md beside this
file.  The inputs that decide an op's cost (the start's distance from the
optimum, the box radii, the freeze modes) are the same in every op, and
the seed draws the rest, so runs with different seeds do comparable work
and op times have one mode.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Relative tolerance on rewards and values compared with stored outputs.
#: Paths, argmins, counts and walk steps must match exactly.
REWARD_RTOL = 1e-6


class SourceMissing(RuntimeError):
    """The checkout holds no mesopt sources to benchmark."""


def import_mesopt():
    init = SRC / "mesopt" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no mesopt sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mesopt

    if Path(mesopt.__file__).resolve() != init.resolve():
        raise SourceMissing(f"mesopt imported from {mesopt.__file__}, not from {SRC}")
    return mesopt


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REWARD_RTOL, abs_tol=1e-12)


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _diff_paths(ref: dict, out: dict, exact: tuple[str, ...], approx: tuple[str, ...]) -> list[str]:
    problems = [f"{k}: {_short(out.get(k))} != stored {_short(ref[k])}" for k in exact if out.get(k) != ref[k]]
    for k in approx:
        a, b = out.get(k), ref[k]
        a_list, b_list = (a, b) if isinstance(b, list) else ([a], [b])
        if a is None or len(a_list) != len(b_list) or not all(map(_close, a_list, b_list)):
            problems.append(f"{k}: {_short(a)} not within rtol {REWARD_RTOL} of stored {_short(b)}")
    return problems


class Workload:
    """One set of inputs; subclasses define the op."""

    name = ""

    def setup(self):
        """Imports, config and backend construction; returns the op state."""
        raise NotImplementedError

    def warmup(self, state) -> None:
        """A small untimed call that loads every code path the op uses."""

    def inputs(self, seed: int):
        """Endless op inputs drawn from the seed."""
        raise NotImplementedError

    def call(self, state, inp):
        """Zero-argument callable that runs one op; only it is timed."""
        raise NotImplementedError

    def summarize(self, state, inp, raw) -> dict:
        return raw

    def check(self, inp, out) -> list[str]:
        return []

    def compare(self, ref: dict, out: dict) -> list[str]:
        raise NotImplementedError

    def reference_inputs(self) -> list[dict]:
        raise NotImplementedError


def _grid_values(lo: float, step: float, n: int) -> tuple[float, ...]:
    return tuple(round(lo + step * i, 10) for i in range(n))


class ChannelOptimize(Workload):
    """One `mesopt optimize` command on the Stokes backend.

    Every start is (START_F, b) with b from B: from each of them the run
    takes 5 cycles and 18 simulations, so the seed moves the start without
    changing how much work an op is.  b = 2.0, 2.6, 2.9 and 3.0 on the same
    line take 16 to 25 simulations and are left out for that reason.
    """

    name = "channel-optimize"
    CONFIG = {
        "backend": "stokes",
        "seed": 0,
        "grid": {"mins": [1.5, 1.5], "maxs": [4.0, 4.0], "steps": [0.1, 0.1]},
        "optimizer": {
            "gamma": 0.9,
            "epsilon": 0.1,
            "initial_radii": [3, 3],
            "freeze_mode": "alternating",
            "max_cycles": 12,
        },
        "channel": {"Lx": 4.0, "Lz": 6.0, "nx": 96, "nz": 72, "inflow": [1.0, 0.75], "leading_edge_x": 1.0},
    }
    START_F = 3.4
    B = (2.1, 2.2, 2.3, 2.4, 2.5, 2.7, 2.8, 3.1, 3.2)

    def _config(self, start) -> dict:
        cfg = json.loads(json.dumps(self.CONFIG))
        cfg["optimizer"]["start"] = list(start)
        return cfg

    def setup(self):
        import_mesopt()
        from mesopt import cli

        work = OUT / self.name
        work.mkdir(parents=True, exist_ok=True)
        base = work / "base.json"
        base.write_text(json.dumps(self._config((self.START_F, self.B[0]))))
        cli.build_backend(cli.load_config(base))
        return {"cli": cli, "work": work}

    def warmup(self, state):
        from mesopt.objectives import StokesObjective
        from mesopt.stokes import ChannelConfig

        StokesObjective(ChannelConfig(Lx=4.0, Lz=6.0, nx=24, nz=18)).components((2.0, 3.0))

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield {"start": [self.START_F, rng.choice(self.B)]}

    def call(self, state, inp):
        config = state["work"] / "op.json"
        config.write_text(json.dumps(self._config(inp["start"])))
        out = state["work"] / "op"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["optimize", "--config", str(config), "--out", str(out)]
        return lambda: state["cli"].main(argv)

    def summarize(self, state, inp, raw):
        out = state["work"] / "op"
        trace = json.loads((out / "trace.json").read_text())
        shutil.rmtree(out)
        cycles = trace["cycles"]
        return {
            "exit": raw,
            "terminated_reason": trace["terminated_reason"],
            "centers": [c["center"]["index"] for c in cycles] + [cycles[-1]["argmin"]["index"]] if cycles else [],
            "values": [c["center_value"] for c in cycles] + [cycles[-1]["true_objective_at_argmin"]] if cycles else [],
            "simulations": trace["total_simulations"],
        }

    def check(self, inp, out):
        expected = {"converged": 0, "max_cycles": 4}.get(out["terminated_reason"])
        problems = []
        if out["exit"] != expected:
            problems.append(f"exit {out['exit']} with terminated_reason {out['terminated_reason']!r}")
        if not all(math.isfinite(v) for v in out["values"]):
            problems.append("non-finite reward on the center path")
        return problems

    def compare(self, ref, out):
        return _diff_paths(ref, out, ("exit", "terminated_reason", "centers", "simulations"), ("values",))

    def reference_inputs(self):
        return [{"start": [self.START_F, b]} for b in self.B]


class ValleyOptimize(Workload):
    """The `exp2` experiment on the analytic valley: ten `run_optimization`s.

    From one start (START_F, b), with b drawn from the seed, an op runs
    radii 1-5 under freeze modes off and alternating, as `mesopt exp2`
    does.  Every op is the same mix, so its time has one mode.  From each
    b in B an op builds 254k to 260k kernel rows and makes 6.7k to 6.9k
    power sums; over the whole line b = 1.5-4.5 the rows range from 226k
    to 260k, so the rest of the line is left out to keep the work per op
    equal.
    """

    name = "valley-optimize"
    GRID = dict(mins=(1.5, 1.5), maxs=(10.0, 4.5), steps=(0.1, 0.1))
    START_F = 5.0
    B = _grid_values(3.3, 0.1, 10)
    KINDS = tuple((r, mode) for r in (1, 2, 3, 4, 5) for mode in ("off", "alternating"))

    def setup(self):
        import_mesopt()
        from mesopt import reduction
        from mesopt.grid import ParameterGrid
        from mesopt.objectives import SyntheticValleyObjective

        base = reduction.OptimizerConfig(gamma=0.9, epsilon=0.1, max_cycles=200)
        return {
            "reduction": reduction,
            "grid": ParameterGrid(**self.GRID),
            "backend": SyntheticValleyObjective(),
            "configs": [replace(base, initial_radii=(r, r), freeze_mode=mode) for r, mode in self.KINDS],
        }

    def warmup(self, state):
        grid = state["grid"]
        state["reduction"].run_optimization(grid, grid.index_of((2.2, 2.4)), state["backend"], state["configs"][0])

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield {"start": [self.START_F, rng.choice(self.B)]}

    def call(self, state, inp):
        grid, backend, reduction = state["grid"], state["backend"], state["reduction"]
        start = grid.index_of(inp["start"])
        return lambda: [reduction.run_optimization(grid, start, backend, c) for c in state["configs"]]

    def summarize(self, state, inp, traces):
        out = []
        for trace in traces:
            values = [c.center_value for c in trace.cycles]
            if trace.cycles:
                values.append(trace.cycles[-1].true_objective_at_argmin)
            out.append(
                {
                    "terminated_reason": trace.terminated_reason,
                    "error": trace.error,
                    "centers": [list(p) for p in trace.centers()],
                    "values": values,
                    "simulations": trace.total_simulations,
                }
            )
        return {"runs": out}

    def check(self, inp, out):
        return [
            f"radius {r} freeze {mode}: terminated {run['terminated_reason']!r}: {run['error']}"
            for (r, mode), run in zip(self.KINDS, out["runs"])
            if run["terminated_reason"] != "converged"
        ]

    def compare(self, ref, out):
        if len(ref["runs"]) != len(out["runs"]):
            return [f"{len(out['runs'])} runs, stored {len(ref['runs'])}"]
        return [
            f"radius {r} freeze {mode}: {problem}"
            for (r, mode), a, b in zip(self.KINDS, ref["runs"], out["runs"])
            for problem in _diff_paths(a, b, ("terminated_reason", "centers", "simulations"), ("values",))
        ]

    def reference_inputs(self):
        return [{"start": [self.START_F, b]} for b in self.B]


class ValleyWalk(Workload):
    """The `walk` experiment on the valley grid: both hitting-time modes.

    As the `walk` command does, an op evaluates the objective on every grid
    node, then runs `hitting_time_experiment` in fixed and in free mode
    with the same walk seed.  The start is (3.5, b), on the line of the
    command's default start (3.5, 3.5).

    Hitting times are random, so a candidate input's walks take 12k to 25k
    steps in all.  An op's time follows its steps, so the seed draws only
    from the stored candidates whose steps lie within STEPS_BAND of their
    median: every op then does the same work, and every op is checked
    against its stored output.
    """

    name = "valley-walk"
    GRID = dict(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    N_WALKS = 25
    MAX_STEPS = 5000
    T0 = 1.0
    TARGET = [5, 10]  # grid index of the valley minimum (2.0, 2.5)
    START_F_INDEX = 20  # f = 3.5
    N_B = 26
    MODES = ("fixed", "free")
    REFERENCE_SEEDS = range(20)
    REFERENCE_OPS = 8
    STEPS_BAND = 0.03

    def setup(self):
        import_mesopt()
        from mesopt import metropolis
        from mesopt.grid import ParameterGrid
        from mesopt.objectives import SyntheticValleyObjective

        return {"metropolis": metropolis, "grid": ParameterGrid(**self.GRID), "backend": SyntheticValleyObjective()}

    def warmup(self, state):
        self.call(state, {"start": [6, 11], "walk_seed": 0})()

    def candidates(self, seed):
        rng = random.Random(seed)
        while True:
            yield {"start": [self.START_F_INDEX, rng.randrange(self.N_B)], "walk_seed": rng.randrange(2**31)}

    def equal_work_inputs(self) -> list[dict]:
        steps = {k: sum(sum(out[m]["steps"]) for m in self.MODES) for k, out in load_reference(self.name).items()}
        if not steps:
            raise RuntimeError(f"no stored outputs at {reference_path(self.name)}")
        mid = statistics.median(steps.values())
        return [json.loads(k) for k, n in sorted(steps.items()) if abs(n - mid) <= self.STEPS_BAND * mid]

    def inputs(self, seed):
        pool = self.equal_work_inputs()
        rng = random.Random(seed)
        while True:
            yield rng.choice(pool)

    def call(self, state, inp):
        grid, backend, metropolis = state["grid"], state["backend"], state["metropolis"]
        start = tuple(inp["start"])

        def op():
            values = {p: backend(grid.theta(p)) for p in grid.points()}
            return [
                metropolis.hitting_time_experiment(
                    values,
                    grid,
                    start,
                    mode,
                    n_walks=self.N_WALKS,
                    seed=inp["walk_seed"],
                    max_steps=self.MAX_STEPS,
                    t0=self.T0,
                )
                for mode in self.MODES
            ]

        return op

    def summarize(self, state, inp, stats):
        out = {s.mode: {"steps": list(s.steps), "hits": list(s.hits)} for s in stats}
        out["target"] = [list(s.target) for s in stats]
        return out

    def check(self, inp, out):
        problems = []
        if out["target"] != [self.TARGET] * len(self.MODES):
            problems.append(f"targets {out['target']} are not the valley minimum {self.TARGET}")
        for mode in self.MODES:
            walks = out[mode]
            if len(walks["steps"]) != self.N_WALKS:
                problems.append(f"{mode}: {len(walks['steps'])} walks, expected {self.N_WALKS}")
            for steps, hit in zip(walks["steps"], walks["hits"]):
                if not 0 < steps <= self.MAX_STEPS or (not hit and steps != self.MAX_STEPS):
                    problems.append(f"{mode}: walk of {steps} steps with hit={hit}")
                    break
        return problems

    def compare(self, ref, out):
        return _diff_paths(ref, out, self.MODES + ("target",), ())

    def reference_inputs(self):
        return [
            inp
            for seed in self.REFERENCE_SEEDS
            for inp in itertools.islice(self.candidates(seed), self.REFERENCE_OPS)
        ]


WORKLOADS = {w.name: w for w in (ChannelOptimize(), ValleyOptimize(), ValleyWalk())}


def input_key(inp: dict) -> str:
    return json.dumps(inp, sort_keys=True)


def reference_path(name: str) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{name}.json"


def dump_reference(stored: dict) -> str:
    """JSON with one stored input per line, so diffs show which outputs moved."""
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(stored.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load_reference(name: str) -> dict:
    path = reference_path(name)
    return json.loads(path.read_text()) if path.is_file() else {}
