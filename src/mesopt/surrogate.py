"""Local quadratic estimate of the objective, pinned to the center value.

In displacement coordinates s = theta - theta_center the estimate is

    Rhat(s) = R(center) + sum_i a_i s_i^2 + sum_{i<j} c_ij s_i s_j + sum_i d_i s_i

with no free constant term, so the center is reproduced exactly no matter
how few samples are available.  Coefficients come from the linear system
Rhat(s_j) = R(s_j): exact interpolation when the sample set determines them,
minimum-norm when it does not, least squares when it over-determines them.
For two parameters the coefficient vector is (a, b, c, d, e) for
(x^2, y^2, xy, x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SurrogateError", "SurrogateModel", "fit_surrogate", "monomial_row"]


class SurrogateError(ValueError):
    """Degenerate or inconsistent surrogate sample set."""


def monomial_row(disp: np.ndarray) -> np.ndarray:
    """Quadratic monomials of a displacement: squares, cross terms, linears."""
    disp = np.asarray(disp, dtype=float)
    d = disp.shape[-1]
    squares = disp**2
    crosses = [disp[..., i] * disp[..., j] for i in range(d) for j in range(i + 1, d)]
    if crosses:
        crosses = np.stack(crosses, axis=-1)
        return np.concatenate([squares, crosses, disp], axis=-1)
    return np.concatenate([squares, disp], axis=-1)


@dataclass(frozen=True)
class SurrogateModel:
    """Fitted quadratic around a center point (physical coordinates)."""

    center: tuple[float, ...]
    center_value: float
    coeffs: np.ndarray
    rank: int

    @property
    def d(self) -> int:
        return len(self.center)

    def __call__(self, theta) -> np.ndarray | float:
        theta = np.asarray(theta, dtype=float)
        disp = theta - np.asarray(self.center)
        out = self.center_value + monomial_row(disp) @ self.coeffs
        return float(out) if out.ndim == 0 else out


def fit_surrogate(
    center, center_value: float, samples: list[tuple[tuple[float, ...], float]]
) -> SurrogateModel:
    """Fit the pinned quadratic through ground-truth samples.

    ``samples`` holds (theta, value) pairs in physical coordinates; they must
    be distinct and different from the center.
    """
    center = tuple(float(c) for c in center)
    d = len(center)
    if not samples:
        raise SurrogateError("at least one sample is required")
    seen = set()
    for theta, _ in samples:
        if len(theta) != d:
            raise SurrogateError(f"sample dimension {len(theta)} != center dimension {d}")
        key = tuple(float(v) for v in theta)
        if key == center:
            raise SurrogateError(f"sample {key} coincides with the center")
        if key in seen:
            raise SurrogateError(f"duplicate sample point {key}")
        seen.add(key)

    disp = np.array([theta for theta, _ in samples], dtype=float) - np.asarray(center)
    rhs = np.array([val for _, val in samples], dtype=float) - float(center_value)
    design = monomial_row(disp)
    coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank == 0:
        raise SurrogateError("sample geometry is rank-0; no coefficient is identifiable")
    return SurrogateModel(
        center=center, center_value=float(center_value), coeffs=coeffs, rank=int(rank)
    )
