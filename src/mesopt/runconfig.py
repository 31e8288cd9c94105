"""Strict JSON run configuration.

One document with one section per subsystem; unknown keys are rejected and
every validation error names the offending field by its dotted path, so
drift between experiment configs and the code surfaces immediately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .grid import GridError, ParameterGrid
from .objectives import BACKENDS
from .reduction import OptimizerConfig
from .stokes import ChannelConfig
from .value import CoolingSchedule

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid run configuration; message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class WalkSettings:
    start: tuple[float, ...] = (3.5, 3.5)
    n_walks: int = 100
    max_steps: int = 5000
    t0: float = 1.0


@dataclass
class FixedPointSettings:
    iterations: int = 30
    gamma: float = 0.9
    tol_v: float = 1e-6
    schedule: CoolingSchedule = field(
        default_factory=lambda: CoolingSchedule(t0=1e-3)
    )


@dataclass
class Exp1Settings:
    starts: tuple[tuple[float, ...], ...] = (
        (2.2, 1.7), (2.2, 2.6), (3.0, 1.7), (3.0, 2.6), (3.9, 1.7), (3.9, 2.6),
    )


@dataclass
class Exp2Settings:
    start: tuple[float, ...] = (9.7, 3.9)
    radii: tuple[int, ...] = (1, 2, 3, 4, 5)
    max_cycles: int = 200


@dataclass
class RunConfig:
    backend: str
    seed: int
    grid: ParameterGrid
    optimizer: OptimizerConfig
    start: tuple[float, ...]
    channel: ChannelConfig
    airfoil_e: float
    n_shape_samples: int
    walk: WalkSettings
    fixedpoint: FixedPointSettings
    exp1: Exp1Settings
    exp2: Exp2Settings


class _Section:
    """Typed accessor over one dict level that tracks unknown keys."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", f"expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _p(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def has(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, kind, default=..., allow_none: bool = False):
        self.seen.add(key)
        if key not in self.data:
            if default is ...:
                raise ConfigError(self._p(key), "required field is missing")
            return default
        value = self.data[key]
        if value is None and allow_none:
            return None
        return _coerce(value, kind, self._p(key))

    def section(self, key: str) -> "_Section | None":
        self.seen.add(key)
        if key not in self.data or self.data[key] is None:
            return None
        return _Section(self.data[key], self._p(key))

    def finish(self) -> None:
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(self._p(unknown[0]), "unknown field")


def _coerce(value, kind, path: str):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        out = float(value)
        if not math.isfinite(out):
            raise ConfigError(path, "must be finite")
        return out
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    if kind == "floats":
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty array of numbers")
        return tuple(_coerce(v, float, f"{path}[{i}]") for i, v in enumerate(value))
    if kind == "ints":
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty array of integers")
        return tuple(_coerce(v, int, f"{path}[{i}]") for i, v in enumerate(value))
    raise AssertionError(f"unhandled kind {kind}")


def _parse_cooling(sec: _Section | None, default_t0: float) -> CoolingSchedule:
    if sec is None:
        return CoolingSchedule(t0=default_t0)
    kind = sec.get("kind", str, "standard-log")
    t0 = sec.get("t0", float, default_t0)
    sec.finish()
    try:
        return CoolingSchedule(kind=kind, t0=t0)
    except ValueError as exc:
        raise ConfigError(sec.path, str(exc)) from None


def parse_config(raw: dict) -> RunConfig:
    root = _Section(raw, "")

    backend = root.get("backend", str, "synthetic-valley")
    if backend not in BACKENDS:
        raise ConfigError("backend", f"must be one of {', '.join(BACKENDS)}")
    seed = root.get("seed", int, 0)

    gsec = root.section("grid")
    if gsec is None:
        raise ConfigError("grid", "required section is missing")
    mins = gsec.get("mins", "floats")
    maxs = gsec.get("maxs", "floats")
    steps = gsec.get("steps", "floats")
    gsec.finish()
    try:
        grid = ParameterGrid(mins=mins, maxs=maxs, steps=steps)
    except GridError as exc:
        raise ConfigError("grid", str(exc)) from None

    osec = root.section("optimizer")
    start = tuple(2.0 for _ in range(grid.d))
    opt_kwargs = {}
    if osec is not None:
        start = osec.get("start", "floats", start)
        opt_kwargs = dict(
            gamma=osec.get("gamma", float, 0.9),
            epsilon=osec.get("epsilon", float, 0.1),
            initial_radii=osec.get("initial_radii", "ints", tuple(3 for _ in range(grid.d))),
            tol_v=osec.get("tol_v", float, 1e-6),
            max_cycles=osec.get("max_cycles", int, 40),
            max_j=osec.get("max_j", int, 60),
            freeze_mode=osec.get("freeze_mode", str, "alternating"),
            schedule=_parse_cooling(osec.section("cooling"), 1.0),
        )
        osec.finish()
    else:
        opt_kwargs = dict(initial_radii=tuple(3 for _ in range(grid.d)))
    try:
        optimizer = OptimizerConfig(**opt_kwargs)
    except ValueError as exc:
        raise ConfigError("optimizer", str(exc)) from None
    if len(start) != grid.d:
        raise ConfigError("optimizer.start", f"expected {grid.d} coordinates")
    if len(optimizer.initial_radii) != grid.d:
        raise ConfigError("optimizer.initial_radii", f"expected {grid.d} radii")

    csec = root.section("channel")
    airfoil_e = 0.3
    n_shape_samples = 257
    if csec is not None:
        airfoil_e = csec.get("airfoil_e", float, 0.3)
        n_shape_samples = csec.get("n_shape_samples", int, 257)
        ch_kwargs = dict(
            Lx=csec.get("Lx", float, 4.0),
            Lz=csec.get("Lz", float, 2.0),
            nx=csec.get("nx", int, 192),
            nz=csec.get("nz", int, 96),
            inflow=csec.get("inflow", "floats", (1.0, 0.75)),
            leading_edge_x=csec.get("leading_edge_x", float, 1.0),
            line_E_x=csec.get("line_E_x", float, None, allow_none=True),
            penalization=csec.get("penalization", float, 1e6),
            solver_tol=csec.get("solver_tol", float, 1e-8),
            max_iters=csec.get("max_iters", int, 50),
            reward_variant=csec.get("reward_variant", str, "ratio"),
        )
        csec.finish()
        if len(ch_kwargs["inflow"]) != 2:
            raise ConfigError("channel.inflow", "expected [u_in, w_in]")
        try:
            channel = ChannelConfig(**ch_kwargs)
        except ValueError as exc:
            raise ConfigError("channel", str(exc)) from None
    else:
        channel = ChannelConfig()

    wsec = root.section("walk")
    walk = WalkSettings(start=tuple(grid.theta(tuple((n - 1) for n in grid.shape))))
    if wsec is not None:
        walk = WalkSettings(
            start=wsec.get("start", "floats", walk.start),
            n_walks=wsec.get("n_walks", int, 100),
            max_steps=wsec.get("max_steps", int, 5000),
            t0=wsec.get("t0", float, 1.0),
        )
        wsec.finish()
        if walk.n_walks < 1 or walk.max_steps < 1:
            raise ConfigError("walk", "n_walks and max_steps must be positive")
        if walk.t0 <= 0.0:
            raise ConfigError("walk.t0", "must be positive")

    fsec = root.section("fixedpoint")
    fixedpoint = FixedPointSettings()
    if fsec is not None:
        fixedpoint = FixedPointSettings(
            iterations=fsec.get("iterations", int, 30),
            gamma=fsec.get("gamma", float, 0.9),
            tol_v=fsec.get("tol_v", float, 1e-6),
            schedule=_parse_cooling(fsec.section("cooling"), 1e-3),
        )
        fsec.finish()
        if not 0.0 <= fixedpoint.gamma < 1.0:
            raise ConfigError("fixedpoint.gamma", "must be in [0, 1)")
        if fixedpoint.iterations < 1:
            raise ConfigError("fixedpoint.iterations", "must be >= 1")
        if fixedpoint.tol_v <= 0.0:
            raise ConfigError("fixedpoint.tol_v", "must be positive")

    e1sec = root.section("exp1")
    exp1 = Exp1Settings()
    if e1sec is not None:
        e1sec.seen.add("starts")
        raw_starts = e1sec.data.get("starts")
        if raw_starts is not None:
            if not isinstance(raw_starts, list) or not raw_starts:
                raise ConfigError("exp1.starts", "expected a non-empty array of points")
            starts = tuple(
                _coerce(s, "floats", f"exp1.starts[{i}]") for i, s in enumerate(raw_starts)
            )
            exp1 = Exp1Settings(starts=starts)
        e1sec.finish()

    e2sec = root.section("exp2")
    exp2 = Exp2Settings()
    if e2sec is not None:
        exp2 = Exp2Settings(
            start=e2sec.get("start", "floats", (9.7, 3.9)),
            radii=e2sec.get("radii", "ints", (1, 2, 3, 4, 5)),
            max_cycles=e2sec.get("max_cycles", int, 200),
        )
        e2sec.finish()
        if any(r < 1 for r in exp2.radii):
            raise ConfigError("exp2.radii", "radii must be >= 1")

    root.finish()
    return RunConfig(
        backend=backend,
        seed=seed,
        grid=grid,
        optimizer=optimizer,
        start=start,
        channel=channel,
        airfoil_e=airfoil_e,
        n_shape_samples=n_shape_samples,
        walk=walk,
        fixedpoint=fixedpoint,
        exp1=exp1,
        exp2=exp2,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("<config>", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be an object")
    return parse_config(raw)
