"""Strict JSON run configuration.

One document with one section per subsystem; unknown keys are rejected and
every validation error names the offending field by its dotted path, so
drift between experiment configs and the code surfaces immediately.

Every setting has one home, its settings dataclass field: a section's keys
are the field names, each read as the JSON kind its annotation names, and a
missing key takes the field's own default.  A field whose type is itself a
settings dataclass is the nested section of the field's name (so
``OptimizerConfig.cooling`` is ``optimizer.cooling``).  Only the defaults
that depend on the grid are set here: ``optimizer.initial_radii`` (3 per
dimension), ``optimizer.start`` (2.0 per coordinate) and ``walk.start``
(the grid's last node).  Every section present is parsed and checked,
whatever the command.  Command-line flags are written into the document
before it is parsed, so a flag passes exactly the checks of its key.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .grid import ParameterGrid
from .metropolis import CoolingSchedule
from .objectives import BACKENDS
from .reduction import OptimizerConfig
from .stokes import ChannelConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid run configuration; message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class WalkSettings:
    start: tuple[float, ...]
    n_walks: int = 100
    max_steps: int = 5000
    t0: float = 1.0

    def __post_init__(self):
        if self.n_walks < 1 or self.max_steps < 1:
            raise ConfigError("walk", "n_walks and max_steps must be positive")
        if self.t0 <= 0.0:
            raise ConfigError("walk.t0", "must be positive")


@dataclass
class FixedPointSettings:
    iterations: int = 30
    gamma: float = 0.9
    tol_v: float = 1e-6
    cooling: CoolingSchedule = field(default_factory=lambda: CoolingSchedule(t0=1e-3))

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("fixedpoint.gamma", "must be in [0, 1)")
        if self.iterations < 1:
            raise ConfigError("fixedpoint.iterations", "must be >= 1")
        if self.tol_v <= 0.0:
            raise ConfigError("fixedpoint.tol_v", "must be positive")


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

    def __post_init__(self):
        if any(r < 1 for r in self.radii):
            raise ConfigError("exp2.radii", "radii must be >= 1")
        OptimizerConfig(max_cycles=self.max_cycles)  # the optimizer's own check


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    backend: str = "synthetic-valley"
    seed: int = 0
    grid: ParameterGrid
    optimizer: OptimizerConfig
    start: tuple[float, ...]
    channel: ChannelConfig
    walk: WalkSettings
    fixedpoint: FixedPointSettings
    exp1: Exp1Settings
    exp2: Exp2Settings

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if self.backend not in BACKENDS:
            raise ConfigError("backend", f"must be one of {', '.join(BACKENDS)}")
        d = BACKENDS[self.backend].d
        if self.grid.d != d:
            raise ConfigError("grid", f"backend {self.backend!r} needs a {d}-d grid")


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

    def get(self, key: str, kind, default=MISSING):
        self.seen.add(key)
        if key not in self.data:
            if default is MISSING:
                raise ConfigError(self._p(key), "required field is missing")
            return default
        return _coerce(self.data[key], kind, self._p(key))

    def section(self, key: str) -> "_Section":
        """The nested object under ``key``; absent or null reads as ``{}``."""
        self.seen.add(key)
        value = self.data.get(key)
        return _Section({} if value is None else value, self._p(key))

    def finish(self) -> None:
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(self._p(unknown[0]), "unknown field")


_ARRAY_OF = {float: "numbers", int: "integers"}


def _coerce(value, kind, path: str):
    """``value`` as the type annotation ``kind``; arrays become tuples."""
    if type(None) in typing.get_args(kind):  # ``X | None`` also takes null
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        if not isinstance(value, list) or not value:
            raise ConfigError(path, f"expected a non-empty array of {_ARRAY_OF.get(item, 'points')}")
        return tuple(_coerce(v, item, f"{path}[{i}]") for i, v in enumerate(value))
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
    raise AssertionError(f"unhandled kind {kind}")


def _build(cls, sec: _Section, **defaults):
    """Settings class ``cls`` read from ``sec``, one key per field.

    A missing key takes its value from ``defaults``, else the field's own
    default.  A field whose type is a dataclass is the nested section of
    its name, whose missing keys keep the values of that field's default.
    A ``ValueError`` from the class's own checks names the section.
    """
    kinds = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        default = defaults.get(f.name, default)
        if dataclasses.is_dataclass(kinds[f.name]):
            kwargs[f.name] = _build(kinds[f.name], sec.section(f.name), **dataclasses.asdict(default))
        else:
            kwargs[f.name] = sec.get(f.name, kinds[f.name], default)
    sec.finish()
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(sec.path, str(exc)) from None


def parse_config(raw: dict) -> RunConfig:
    root = _Section(raw, "")

    backend = root.get("backend", str, RunConfig.backend)
    seed = root.get("seed", int, RunConfig.seed)

    if root.data.get("grid") is None:
        raise ConfigError("grid", "required section is missing")
    grid = _build(ParameterGrid, root.section("grid"))

    osec = root.section("optimizer")
    start = osec.get("start", tuple[float, ...], (2.0,) * grid.d)
    optimizer = _build(OptimizerConfig, osec, initial_radii=(3,) * grid.d)
    if len(start) != grid.d:
        raise ConfigError("optimizer.start", f"expected {grid.d} coordinates")
    if len(optimizer.initial_radii) != grid.d:
        raise ConfigError("optimizer.initial_radii", f"expected {grid.d} radii")

    channel = _build(ChannelConfig, root.section("channel"))

    last_node = tuple(grid.theta(tuple(n - 1 for n in grid.shape)))
    walk = _build(WalkSettings, root.section("walk"), start=last_node)
    fixedpoint = _build(FixedPointSettings, root.section("fixedpoint"))
    exp1 = _build(Exp1Settings, root.section("exp1"))
    exp2 = _build(Exp2Settings, root.section("exp2"))

    root.finish()
    return RunConfig(
        backend=backend,
        seed=seed,
        grid=grid,
        optimizer=optimizer,
        start=start,
        channel=channel,
        walk=walk,
        fixedpoint=fixedpoint,
        exp1=exp1,
        exp2=exp2,
    )


def load_config(path: str | Path, **overrides) -> RunConfig:
    """The run configuration in the JSON file ``path``.

    Each ``overrides`` value that is not None replaces its top-level key
    before the document is parsed, so it passes that key's checks.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("<config>", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError("<config>", f"not UTF-8 text: {path}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be an object")
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    return parse_config(raw)
