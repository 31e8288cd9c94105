"""Ground-truth objectives and the simulation-budget counter.

The channel objective is R = R1 + R2 from a fresh Stokes solve: R1 the mean
squared-vertical-component ratio on the evaluation line, R2 the spread of
the velocity magnitude there.  Two analytic stand-ins let the optimizer and
walk experiments run without a flow solve: a sixth-degree polynomial with
three flat wells for the 1-d fixed-point demonstration, and a strongly
anisotropic 2-d valley (steep in f, shallow in b, minimum at (2, 2.5)).  The
valley does not mimic the channel landscape as it stands, which is steeper
in b than in f (at 96x48, R rises about 0.72 per unit b along f = 2 and
0.15 per unit f along b = 2).

Every backend counts its ground-truth evaluations; the count is the cost
metric the optimizer is meant to minimize.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .geometry import AirfoilSpec, GeometryError, build_airfoil
from .grid import GridError, ParameterGrid
from .stokes import (
    ChannelConfig,
    EvaluationProfile,
    FlowError,
    blade_faces,
    sample_line,
    solid_cells,
    solve_stokes,
    solving_together,
)

__all__ = [
    "BACKEND_FAILURES",
    "reward_R1",
    "reward_R2",
    "fictitious_1d",
    "synthetic_valley_2d",
    "CountingObjective",
    "StokesObjective",
    "SyntheticValleyObjective",
    "Fictitious1DObjective",
    "BACKENDS",
]


#: Failures of a backend evaluation: they end a run or a landscape cell
#: (and exit 3); any other exception is a bug.
BACKEND_FAILURES = (FlowError, GeometryError, GridError)


def reward_R1(profile: EvaluationProfile) -> float:
    """Mean vertical-component ratio u2^2 / (u1^2 + u2^2) on the line.

    It lies in [0, 1] and is 0 for aligned flow.
    """
    q2 = profile.u1**2 + profile.u2**2
    if np.any(q2 == 0.0):
        raise ValueError("stagnant sample on the evaluation line (u1 = u2 = 0)")
    return float(np.mean(profile.u2**2 / q2))


def reward_R2(profile: EvaluationProfile) -> float:
    """Spread of the velocity magnitude on the line: max|u| - min|u|."""
    if profile.u1.size == 0:
        raise ValueError("empty evaluation profile")
    speed = profile.speed()
    return float(speed.max() - speed.min())


def fictitious_1d(x: float) -> float:
    """(x + 2)^2 (x + 1)^2 (x - 1)^2: three flat wells at -2, -1, 1."""
    return float((x + 2.0) ** 2 * (x + 1.0) ** 2 * (x - 1.0) ** 2)


def synthetic_valley_2d(f: float, b: float) -> float:
    """Anisotropic valley with its minimum at (2, 2.5); steep in f, shallow in b."""
    df, db = f - 2.0, b - 2.5
    return float(5.0 * df**2 + 0.2 * db**2 + 0.05 * df * db)


class CountingObjective:
    """Ground-truth objective with a schedule-independent evaluation tally."""

    #: number of parameters the backend expects
    d: int = 2

    def __init__(self):
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def components(self, theta) -> tuple[float, float, float]:
        """(R1, R2, R) from one counted ground-truth evaluation."""
        self._calls += 1
        return self._components(tuple(map(float, theta)))

    def __call__(self, theta) -> float:
        return self.components(theta)[2]

    def _components(self, theta) -> tuple[float, float, float]:
        raise NotImplementedError


def _blade(f: float, b: float, channel: ChannelConfig):
    """The channel's blade at (f, b): the envelope holds the blades the solves build."""
    return build_airfoil(AirfoilSpec(f=f, b=b, e=channel.airfoil_e), channel.n_shape_samples)


@functools.lru_cache(maxsize=1)
def _grid_envelope(
    grid: ParameterGrid, channel: ChannelConfig
) -> tuple[np.ndarray, Mapping[AirfoilSpec, np.ndarray]]:
    """Strip cells that hold the solid faces of every blade on the grid, and those faces.

    The table maps each grid blade's spec to its solid faces, as
    ``blade_faces`` gives them, so a solve on the grid need not run the
    rule again; the cache hands it to every caller, so it is read-only.  A
    node whose spec or fit is invalid is left out of both, and so is a
    blade whose mask selects no face: each raises at its own solve.  Built
    on the first solve and cached on everything it reads, so the backends
    of one process that share a grid and channel (every ``optimize``
    builds a fresh one) pay for it once.
    """

    def blades():
        for p in grid.points():
            f, b = grid.theta(p)
            try:
                yield _blade(f, b, channel)
            except GeometryError:
                continue

    cells = np.zeros((channel.nx, channel.nz), dtype=bool)
    table = {}
    for shape, faces in blade_faces(blades(), channel):
        if faces.size:
            cells |= solid_cells(faces, channel)
            faces.flags.writeable = False
            table[shape.spec] = faces
    cells.flags.writeable = False
    return cells, MappingProxyType(table)


class StokesObjective(CountingObjective):
    """R1 + R2 behind a fresh channel solve at theta = (f, b).

    A solve that misses ``solver_tol``, or a non-finite field or profile,
    raises FlowError instead of yielding a reward.  Given the parameter
    grid, the solves factor only the grid blades' envelope (built on the
    first solve), and a grid blade's solve reads its faces from the
    envelope's table; a blade off the grid runs the rule.  Every solve
    raises ValueError if the blade's cells leave the envelope.
    """

    d = 2

    def __init__(self, channel: ChannelConfig, grid: ParameterGrid | None = None):
        super().__init__()
        self.channel = channel
        self.grid = grid

    @contextlib.contextmanager
    def group(self, thetas):
        """Within the block, solve the grid blades at ``thetas`` together.

        Each theta is still evaluated by its own ``components`` call, in
        the caller's order and with the same result as alone: the first
        solve of one of them solves them all (``stokes.solving_together``).
        Blades off the grid's face table, and every blade of a backend
        without a grid, are solved on their own calls.
        """
        if self.grid is None:
            yield
            return
        channel = self.channel
        envelope, table = _grid_envelope(self.grid, channel)
        blades = []
        for f, b in thetas:
            try:
                faces = table.get(AirfoilSpec(f=f, b=b, e=channel.airfoil_e))
            except GeometryError:
                continue
            if faces is not None:
                blades.append(faces)
        with solving_together(blades, channel, envelope):
            yield

    def _components(self, theta):
        f, b = theta
        channel = self.channel
        shape = _blade(f, b, channel)
        envelope = faces = None
        if self.grid is not None:
            envelope, table = _grid_envelope(self.grid, channel)
            faces = table.get(shape.spec)
        field = solve_stokes(shape, channel, envelope=envelope, faces=faces)
        if not field.converged:
            raise FlowError(
                f"solve missed solver_tol {channel.solver_tol:g} after "
                f"{channel.max_iters} refinements (residual {field.residual:.3e})"
            )
        profile = sample_line(field, channel)
        arrays = (field.u1, field.u2, field.p, profile.u1, profile.u2)
        if not all(np.isfinite(a).all() for a in arrays):
            raise FlowError("non-finite flow field or evaluation profile")
        r1 = reward_R1(profile)
        r2 = reward_R2(profile)
        return r1, r2, r1 + r2


class SyntheticValleyObjective(CountingObjective):
    d = 2

    def _components(self, theta):
        r = synthetic_valley_2d(*theta)
        return r, 0.0, r


class Fictitious1DObjective(CountingObjective):
    d = 1

    def _components(self, theta):
        r = fictitious_1d(theta[0])
        return r, 0.0, r


#: The one backend registry: config name -> objective class (each declares d).
BACKENDS: dict[str, type[CountingObjective]] = {
    "stokes": StokesObjective,
    "synthetic-valley": SyntheticValleyObjective,
    "fictitious-1d": Fictitious1DObjective,
}
