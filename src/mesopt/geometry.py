"""Root-factorized airfoil surfaces with a superimposed camber line.

Each surface is the product of ``sqrt(x)`` with a polynomial given by its
real roots and a leading coefficient.  The two-parameter family used by the
channel experiments keeps degree-two polynomials on both sides,

    z_up(x) =  sqrt(x) * c_up * (x - 1)(x - b) + e*x*(f - x)
    z_lo(x) = -sqrt(x) * c_lo * (x - 1)(x - b) + e*x*(f - x)

with c_up = 1/(2 b^2) and c_lo = b/2.  The lower polynomial carries a
negative sign so the profile has positive thickness; with the same sign on
both sides the surfaces would coincide up to scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "ReducedParsecSide",
    "AirfoilSpec",
    "AirfoilShape",
    "eval_side",
    "camber",
    "build_airfoil",
    "cosine_spacing",
    "MIN_SAMPLES",
]

#: The fewest surface samples ``build_airfoil`` takes.
MIN_SAMPLES = 8


class GeometryError(ValueError):
    """Invalid airfoil parameters or evaluation outside the chord."""


@dataclass(frozen=True)
class ReducedParsecSide:
    """One surface polynomial, stored as its real roots and leading coefficient.

    Represents ``p(x) = leading_coeff * prod_i (x - roots[i])``; the surface
    itself is ``sqrt(x) * p(x)``, which vanishes at x = 0 and at every root
    inside the chord.
    """

    roots: tuple[float, ...]
    leading_coeff: float

    def __init__(self, roots, leading_coeff: float):
        object.__setattr__(self, "roots", tuple(float(r) for r in roots))
        object.__setattr__(self, "leading_coeff", float(leading_coeff))

    def poly(self, x):
        x = np.asarray(x, dtype=float)
        p = np.full_like(x, self.leading_coeff)
        for r in self.roots:
            p = p * (x - r)
        return p


def eval_side(side: ReducedParsecSide, x):
    """Evaluate ``sqrt(x) * p(x)`` for chord-normalized x in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise GeometryError("surface abscissa outside [0, 1]")
    return np.sqrt(x) * side.poly(x)


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

    def upper_side(self) -> ReducedParsecSide:
        return ReducedParsecSide(roots=(1.0, self.b), leading_coeff=self.c_up)

    def lower_side(self) -> ReducedParsecSide:
        # Negative leading coefficient: see module docstring.
        return ReducedParsecSide(roots=(1.0, self.b), leading_coeff=-self.c_lo)


def camber(spec: AirfoilSpec, x):
    """Camber line ``e * x * (f - x)``, added to both surfaces."""
    x = np.asarray(x, dtype=float)
    return spec.e * x * (spec.f - x)


def cosine_spacing(n: int) -> np.ndarray:
    """n abscissae in [0, 1] clustered near 0, where sqrt(x) is steepest."""
    return 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))


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


def build_airfoil(spec: AirfoilSpec, n_samples: int) -> AirfoilShape:
    """Sample both surfaces on a cosine-clustered abscissa.

    Raises GeometryError for invalid specs or fewer than MIN_SAMPLES samples.
    """
    if n_samples < MIN_SAMPLES:
        raise GeometryError(f"n_samples must be >= {MIN_SAMPLES} (got {n_samples})")
    x = cosine_spacing(n_samples)
    cam = camber(spec, x)
    z_up = eval_side(spec.upper_side(), x) + cam
    z_lo = eval_side(spec.lower_side(), x) + cam
    return AirfoilShape(x_samples=x, z_upper=z_up, z_lower=z_lo, spec=spec)
