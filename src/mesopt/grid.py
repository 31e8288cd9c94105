"""Discrete parameter grid, box neighborhoods, and action sets.

States are integer multi-indices into a regular grid
``[min_i, max_i] intersect step_i * Z`` per dimension.  A neighborhood is
the axis-aligned box of indices within given radii of a center, clipped at
the grid bounds.  An action set lists which dimensions may change by one
grid step (plus the always-present stay move).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add, mul

import numpy as np

__all__ = [
    "GridError",
    "GridPoint",
    "ParameterGrid",
    "ActionSet",
    "Neighborhood",
    "make_neighborhood",
]

GridPoint = tuple[int, ...]


class GridError(ValueError):
    """Malformed grid definition or off-grid point."""


@dataclass(frozen=True)
class ParameterGrid:
    """Regular grid over a box of parameter vectors.

    ``shape``, the node count per dimension, is worked out once at
    construction; it is an attribute, not a field, so equality, hashing
    and repr see only mins, maxs and steps.
    """

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    steps: tuple[float, ...]

    def __init__(self, mins, maxs, steps):
        object.__setattr__(self, "mins", tuple(float(v) for v in mins))
        object.__setattr__(self, "maxs", tuple(float(v) for v in maxs))
        object.__setattr__(self, "steps", tuple(float(v) for v in steps))
        if not (len(self.mins) == len(self.maxs) == len(self.steps)):
            raise GridError("mins, maxs, steps must have equal length")
        if len(self.mins) == 0:
            raise GridError("grid needs at least one dimension")
        for lo, hi, d in zip(self.mins, self.maxs, self.steps):
            if d <= 0.0:
                raise GridError(f"grid step must be positive (got {d})")
            n = (hi - lo) / d
            if hi <= lo or abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
                raise GridError(
                    f"span [{lo}, {hi}] is not a positive integer multiple of step {d}"
                )
        shape = tuple(int(round((hi - lo) / d)) + 1 for lo, hi, d in zip(self.mins, self.maxs, self.steps))
        object.__setattr__(self, "shape", shape)

    @property
    def d(self) -> int:
        return len(self.mins)

    def contains(self, point: GridPoint) -> bool:
        return len(point) == self.d and all(
            0 <= idx < n for idx, n in zip(point, self.shape)
        )

    def require(self, point: GridPoint) -> GridPoint:
        point = tuple(int(i) for i in point)
        if not self.contains(point):
            raise GridError(f"point {point} off grid of shape {self.shape}")
        return point

    def theta(self, point: GridPoint) -> tuple[float, ...]:
        """Physical parameter vector at a grid index."""
        return tuple(map(add, self.mins, map(mul, point, self.steps)))

    def index_of(self, theta) -> GridPoint:
        """Nearest grid index for a physical vector; must lie on the grid."""
        if len(theta) != self.d:
            raise GridError(f"point {tuple(theta)} has {len(theta)} coordinates on a {self.d}-d grid")
        idx = []
        for v, lo, hi, d in zip(theta, self.mins, self.maxs, self.steps):
            if not lo - d * 1e-6 <= v <= hi + d * 1e-6:
                raise GridError(f"value {v} lies outside the grid's bounds [{lo}, {hi}]")
            k = (float(v) - lo) / d
            if abs(k - round(k)) > 1e-6:
                raise GridError(f"value {v} is not a grid node of step {d} from {lo}")
            idx.append(int(round(k)))
        return self.require(tuple(idx))

    def points(self):
        """All grid indices in lexicographic order."""
        return itertools.product(*(range(n) for n in self.shape))


@dataclass(frozen=True)
class ActionSet:
    """Changeable-dimension subset; moves are stay plus +-1 steps along it."""

    d: int
    changeable: frozenset[int]

    def __init__(self, d: int, changeable=None):
        object.__setattr__(self, "d", int(d))
        dims = frozenset(range(d)) if changeable is None else frozenset(changeable)
        if any(i < 0 or i >= d for i in dims):
            raise GridError(f"changeable dims {sorted(dims)} outside range(0, {d})")
        object.__setattr__(self, "changeable", dims)

    @property
    def moves(self) -> tuple[GridPoint, ...]:
        """Stay first, then (-, +) unit moves per changeable dimension."""
        out = [tuple(0 for _ in range(self.d))]
        for i in sorted(self.changeable):
            for sign in (-1, +1):
                out.append(tuple(sign if j == i else 0 for j in range(self.d)))
        return tuple(out)

    def frozen(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.d) if i not in self.changeable)


@dataclass(frozen=True)
class Neighborhood:
    """Axis-aligned index box around a center, clipped to the grid."""

    grid: ParameterGrid
    center: GridPoint
    radii: tuple[int, ...]
    lo: tuple[int, ...] = field(init=False)
    hi: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        center = self.grid.require(self.center)
        radii = tuple(int(r) for r in self.radii)
        if len(radii) != self.grid.d or any(r < 0 for r in radii):
            raise GridError(f"bad radii {radii} for a {self.grid.d}-d grid")
        lo = tuple(max(0, c - r) for c, r in zip(center, radii))
        hi = tuple(
            min(n - 1, c + r) for c, r, n in zip(center, radii, self.grid.shape)
        )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def members(self) -> tuple[GridPoint, ...]:
        """Box members in lexicographic order (center included)."""
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        return tuple(itertools.product(*ranges))

    @property
    def size(self) -> int:
        return math.prod(b - a + 1 for a, b in zip(self.lo, self.hi))

    def contains(self, point: GridPoint) -> bool:
        return all(a <= i <= b for i, a, b in zip(point, self.lo, self.hi))

    def axis_line(self, dim: int) -> tuple[GridPoint, ...]:
        """Members on the axis line through the center along one dimension."""
        if not 0 <= dim < self.grid.d:
            raise GridError(f"dimension {dim} out of range")
        return tuple(
            self.center[:dim] + (i,) + self.center[dim + 1 :]
            for i in range(self.lo[dim], self.hi[dim] + 1)
        )

    def thetas(self) -> np.ndarray:
        """Physical coordinates of all members, shape (size, d).

        Row k is bitwise ``grid.theta(members[k])``, the same lo + i * step.
        """
        return np.asarray(self.grid.mins) + np.asarray(self.grid.steps) * np.array(self.members)


def make_neighborhood(grid: ParameterGrid, center: GridPoint, radii) -> Neighborhood:
    """Box of grid points within per-dimension radii of center, bound-clipped."""
    return Neighborhood(grid=grid, center=tuple(center), radii=tuple(radii))
