"""The two-parameter airfoil family: root-factorized surfaces plus a camber line.

Each surface is ``sqrt(x)`` times a degree-two polynomial with roots 1 and
b and a leading coefficient tied to b,

    z_up(x) =  sqrt(x) * c_up * (x - 1)(x - b) + e*x*(f - x)
    z_lo(x) = -sqrt(x) * c_lo * (x - 1)(x - b) + e*x*(f - x)

with c_up = 1/(2 b^2) and c_lo = b/2.  The lower polynomial carries a
negative sign so the profile has positive thickness; with the same sign on
both sides the surfaces would coincide up to scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "AirfoilSpec",
    "AirfoilShape",
    "camber",
    "build_airfoil",
    "MIN_SAMPLES",
]

#: The fewest surface samples ``build_airfoil`` takes.
MIN_SAMPLES = 8


class GeometryError(ValueError):
    """Invalid airfoil parameters or too few surface samples."""


@dataclass(frozen=True)
class AirfoilSpec:
    """Two-parameter airfoil: camber root f and form root b.

    ``f`` places the second root of the camber line ``e*x*(f - x)`` and so
    sets the trailing-edge height e*(f - 1); ``b`` is the outer root of the
    surface polynomial ``(x - 1)(x - b)`` and controls how curved (and thick)
    the profile is.  Leading coefficients are tied to b: c_up = 1/(2 b^2),
    c_lo = b/2.  The slope of the trailing-edge bisector is
    e*(f - 2) + (b - 1)(c_lo - c_up)/2, so f sets the trailing-edge
    direction only together with b.
    """

    f: float
    b: float
    e: float = 0.3

    def __post_init__(self):
        if not self.b > 1.0:
            raise GeometryError(f"form root b must exceed 1 (got {self.b})")
        if not self.f >= 1.0:
            raise GeometryError(f"camber root f must be >= 1 (got {self.f})")

    @property
    def c_up(self) -> float:
        return 1.0 / (2.0 * self.b**2)

    @property
    def c_lo(self) -> float:
        return self.b / 2.0

    def surface(self, x, c: float) -> np.ndarray:
        """``sqrt(x) * c * (x - 1)(x - b)`` at chord-normalized x, before the camber line.

        c is ``c_up`` for the upper surface and ``-c_lo`` for the lower one
        (see module docstring).
        """
        x = np.asarray(x, dtype=float)
        return np.sqrt(x) * (c * (x - 1.0) * (x - self.b))


def camber(spec: AirfoilSpec, x):
    """Camber line ``e * x * (f - x)``, added to both surfaces."""
    x = np.asarray(x, dtype=float)
    return spec.e * x * (spec.f - x)


@dataclass(frozen=True)
class AirfoilShape:
    """Sampled upper/lower surface curves in chord units."""

    x_samples: np.ndarray
    z_upper: np.ndarray
    z_lower: np.ndarray
    spec: AirfoilSpec | None = field(default=None, compare=False)

    def thickness(self) -> np.ndarray:
        return self.z_upper - self.z_lower

    def z_extent(self) -> tuple[float, float]:
        return float(self.z_lower.min()), float(self.z_upper.max())

    def interp_upper(self, x):
        return np.interp(x, self.x_samples, self.z_upper)

    def interp_lower(self, x):
        return np.interp(x, self.x_samples, self.z_lower)


@functools.lru_cache(maxsize=8)
def _cosine_x(n_samples: int) -> np.ndarray:
    """n_samples cosine-spaced x in [0, 1]: one read-only array that every blade shares."""
    x = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n_samples)))
    x.flags.writeable = False
    return x


def build_airfoil(spec: AirfoilSpec, n_samples: int) -> AirfoilShape:
    """Sample both surfaces on cosine-spaced x, clustered near 0 where sqrt(x) is steepest.

    Blades with the same n_samples share one read-only x.  Raises
    GeometryError for invalid specs or fewer than MIN_SAMPLES samples.
    """
    if n_samples < MIN_SAMPLES:
        raise GeometryError(f"n_samples must be >= {MIN_SAMPLES} (got {n_samples})")
    x = _cosine_x(n_samples)
    cam = camber(spec, x)
    z_up = spec.surface(x, spec.c_up) + cam
    z_lo = spec.surface(x, -spec.c_lo) + cam
    return AirfoilShape(x_samples=x, z_upper=z_up, z_lower=z_lo, spec=spec)
