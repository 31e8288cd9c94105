"""Desk-scale steady Stokes channel with a penalized solid airfoil.

Finite differences on a MAC staggered grid: u on vertical faces, w on
horizontal faces, p at cell centers.  Boundary conditions are Dirichlet
inflow (u_in, w_in) at x=0, vertically periodic walls, and an outflow
approximated by zero-gradient velocity with the outflow pressure pinned to
zero.  The solid is enforced by a Brinkman drag term K*chi*u on faces whose
location falls inside the airfoil band.  With unit viscosity the velocity
solution is independent of viscosity under these boundary conditions, so
none is exposed.

The discrete saddle system (momentum + continuity) is solved directly,
followed by iterative refinement against the whole system until the
relative residual drops below ``solver_tol``; continuity therefore holds to
machine precision, far below the 1e-6 * |inflow| divergence contract.

The blade enters the system only as a diagonal term on faces in the chord
band, so the direct solve is substructured.  The cell columns around the
band form the strip; all other columns form the exterior, whose equations
are the same for every blade.  Once per ``ChannelConfig`` (on its first
solve; one channel is kept) the exterior block is factored with sparse LU
and its effect on the strip is condensed into a dense correction on the
few strip unknowns that touch it.  Each blade then costs one sparse LU of
the strip's Schur complement and a strip and an exterior triangular solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import AirfoilShape

__all__ = [
    "FlowError",
    "ChannelConfig",
    "FlowField",
    "EvaluationProfile",
    "solve_stokes",
    "sample_line",
    "solid_mask",
    "field_to_csv",
]


class FlowError(RuntimeError):
    """Geometry does not fit the channel or the solve failed."""


@dataclass(frozen=True)
class ChannelConfig:
    """Channel geometry, inflow, discretization, and solver knobs."""

    Lx: float = 4.0
    Lz: float = 2.0
    nx: int = 192
    nz: int = 96
    inflow: tuple[float, float] = (1.0, 0.75)
    leading_edge_x: float = 1.0
    line_E_x: float | None = None  # defaults to trailing edge + 0.5
    penalization: float = 1e6
    solver_tol: float = 1e-8
    max_iters: int = 50
    reward_variant: str = "ratio"  # "ratio" (canonical) or "magnitude" (sqrt denominator)

    def __post_init__(self):
        if self.Lx <= 0 or self.Lz <= 0:
            raise ValueError("channel dimensions must be positive")
        if self.nx < 4 or self.nz < 4:
            raise ValueError("grid must be at least 4x4 cells")
        if self.penalization <= 0:
            raise ValueError("penalization must be positive")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.reward_variant not in ("ratio", "magnitude"):
            raise ValueError(f"unknown reward variant {self.reward_variant!r}")
        if self.line_E_x is None:
            object.__setattr__(self, "line_E_x", self.leading_edge_x + 1.0 + 0.5)
        te = self.leading_edge_x + 1.0
        if not te < self.line_E_x < self.Lx:
            raise ValueError(
                f"evaluation line x={self.line_E_x} must lie strictly between the "
                f"trailing edge ({te}) and the outflow boundary ({self.Lx})"
            )
        if self.leading_edge_x < 0:
            raise ValueError("leading edge must be inside the channel")

    @property
    def dx(self) -> float:
        return self.Lx / self.nx

    @property
    def dz(self) -> float:
        return self.Lz / self.nz

    @property
    def z_min(self) -> float:
        return -self.Lz / 2.0

    def z_centers(self) -> np.ndarray:
        return self.z_min + (np.arange(self.nz) + 0.5) * self.dz

    def z_faces(self) -> np.ndarray:
        return self.z_min + np.arange(self.nz) * self.dz


@dataclass
class FlowField:
    """Staggered velocity components and pressure of one solve.

    u1 has shape (nx+1, nz) and includes the Dirichlet inflow face; u2 has
    shape (nx, nz) on the periodic horizontal faces; p has shape (nx, nz).
    """

    u1: np.ndarray
    u2: np.ndarray
    p: np.ndarray
    converged: bool
    residual: float

    def divergence(self, config: ChannelConfig) -> np.ndarray:
        du = (self.u1[1:, :] - self.u1[:-1, :]) / config.dx
        dw = (np.roll(self.u2, -1, axis=1) - self.u2) / config.dz
        return du + dw


@dataclass(frozen=True)
class EvaluationProfile:
    """Velocities interpolated onto the vertical evaluation line."""

    z_samples: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def speed(self) -> np.ndarray:
        return np.hypot(self.u1, self.u2)


def _chord_coordinate(config: ChannelConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """x measured from the leading edge, and whether it lies on the chord."""
    xc = np.asarray(x) - config.leading_edge_x
    return xc, (xc >= 0.0) & (xc <= 1.0)


def solid_mask(shape: AirfoilShape, config: ChannelConfig, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Indicator of points inside the airfoil band (x, z broadcast together).

    The walls are periodic, so the channel is one period of an infinite
    cascade of blades spaced Lz apart and the band wraps around in z; the
    blade's absolute vertical placement is immaterial.
    """
    xc, inside_chord = _chord_coordinate(config, x)
    xc_clip = np.clip(xc, 0.0, 1.0)
    z_lo = shape.interp_lower(xc_clip)
    z_up = shape.interp_upper(xc_clip)
    return inside_chord & (np.mod(z - z_lo, config.Lz) <= (z_up - z_lo))


def _face_x(config: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """x of the unknown u faces (i = 1..nx) and of the w faces (i = 0..nx-1)."""
    return np.arange(1, config.nx + 1) * config.dx, (np.arange(config.nx) + 0.5) * config.dx


def _check_fit(shape: AirfoilShape, config: ChannelConfig) -> None:
    thickness = shape.thickness()
    if thickness.min() < 0.0:
        raise FlowError(
            f"airfoil thickness {float(thickness.min()):.3g} is negative: the "
            "upper surface dips below the lower one"
        )
    if thickness.max() >= config.Lz:
        raise FlowError(
            f"airfoil thickness {float(thickness.max()):.3f} leaves no open passage in a "
            f"channel of period {config.Lz} (geometry does not fit)"
        )
    if config.leading_edge_x + 1.0 >= config.Lx:
        raise FlowError("airfoil chord extends past the outflow boundary")


def _brinkman_diagonal(shape: AirfoilShape | None, config: ChannelConfig) -> np.ndarray:
    """K*chi on the u and w momentum rows of the system, zero elsewhere.

    This diagonal is the only part of the system that depends on the shape;
    it is nonzero only on faces in the chord band.
    """
    n = config.nx * config.nz
    d = np.zeros(3 * n)
    if shape is None:
        return d
    _check_fit(shape, config)
    xu, xw = _face_x(config)
    chi_u = solid_mask(shape, config, xu[:, None], config.z_centers()[None, :])
    chi_w = solid_mask(shape, config, xw[:, None], config.z_faces()[None, :])
    if not (chi_u.any() or chi_w.any()):
        raise FlowError(
            f"the solid mask selects no face: the blade is invisible to a "
            f"{config.nx}x{config.nz} grid"
        )
    d[:n] = config.penalization * chi_u.astype(float).ravel()
    d[n : 2 * n] = config.penalization * chi_w.astype(float).ravel()
    return d


def _assemble(config: ChannelConfig):
    """Sparse system (A0, b) of the Stokes equations in the empty channel.

    A blade adds ``_brinkman_diagonal`` to A0's diagonal and leaves b as it is.
    """
    nx, nz = config.nx, config.nz
    dx, dz = config.dx, config.dz
    u_in, w_in = config.inflow

    n_u = nx * nz       # u faces i=1..nx
    n_w = nx * nz       # w faces i=0..nx-1, periodic in j
    n_p = nx * nz

    def iu(i, j):  # i in 1..nx
        return (i - 1) * nz + j

    def iw(i, j):  # i in 0..nx-1
        return n_u + i * nz + j

    def ip(i, j):
        return n_u + n_w + i * nz + j

    rows, cols, vals = [], [], []
    b = np.zeros(n_u + n_w + n_p)

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, r.shape).ravel().astype(float))

    J = np.arange(nz)
    jp = (J + 1) % nz
    jm = (J - 1) % nz
    idx2, idz2 = 1.0 / dx**2, 1.0 / dz**2

    # --- u momentum, faces i = 1..nx ---
    for i in range(1, nx + 1):
        r = iu(i, J)
        add(r, r, 2.0 * idx2 + 2.0 * idz2)
        add(r, iu(i, jp), -idz2)
        add(r, iu(i, jm), -idz2)
        if i == nx:
            # ghost u[nx+1] = u[nx-1] (zero gradient at outflow)
            add(r, iu(nx - 1, J), -2.0 * idx2)
            add(r, ip(nx - 1, J), -1.0 / dx)  # outflow pressure pinned to 0
        else:
            add(r, iu(i + 1, J), -idx2)
            if i - 1 >= 1:
                add(r, iu(i - 1, J), -idx2)
            else:
                b[iu(i, J)] += u_in * idx2  # Dirichlet inflow face
            add(r, ip(i, J), 1.0 / dx)
            add(r, ip(i - 1, J), -1.0 / dx)

    # --- w momentum, faces i = 0..nx-1 ---
    for i in range(nx):
        r = iw(i, J)
        if i == 0:
            diag_x = 3.0 * idx2  # ghost w[-1] = 2*w_in - w[0]
            b[iw(0, J)] += 2.0 * w_in * idx2
        elif i == nx - 1:
            diag_x = 1.0 * idx2  # ghost w[nx] = w[nx-1]
        else:
            diag_x = 2.0 * idx2
        add(r, r, diag_x + 2.0 * idz2)
        add(r, iw(i, jp), -idz2)
        add(r, iw(i, jm), -idz2)
        if i + 1 <= nx - 1:
            add(r, iw(i + 1, J), -idx2)
        if i - 1 >= 0:
            add(r, iw(i - 1, J), -idx2)
        add(r, ip(i, J), 1.0 / dz)
        add(r, ip(i, jm), -1.0 / dz)

    # --- continuity per cell ---
    for i in range(nx):
        r = ip(i, J)
        add(r, iu(i + 1, J), 1.0 / dx)
        if i >= 1:
            add(r, iu(i, J), -1.0 / dx)
        else:
            b[ip(0, J)] += u_in / dx
        add(r, iw(i, jp), 1.0 / dz)
        add(r, iw(i, J), -1.0 / dz)

    n = n_u + n_w + n_p
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    return A, b


#: Interface columns eliminated per exterior solve while building the
#: correction; bounds the dense block to n_exterior x _CHUNK floats.
_CHUNK = 64


class _Substructure:
    """The shape-free part of one channel's system, factored once.

    Unknowns split into the strip S, the u, w and p of every cell column
    with a u or w face in the chord band plus one column on either side,
    and the exterior E, all other columns.  Only S carries Brinkman terms,
    so the exterior block A0[E, E] and the interface correction
    A0[S, E] A0[E, E]^-1 A0[E, S] (dense, nonzero only on the strip
    unknowns that touch E) do not depend on the shape.  A shape then needs
    only a factorization of the strip's Schur complement.
    """

    def __init__(self, config: ChannelConfig):
        self.A, self.b = _assemble(config)
        xu, xw = _face_x(config)
        on_band = _chord_coordinate(config, xu)[1] | _chord_coordinate(config, xw)[1]
        in_strip = np.convolve(on_band, np.ones(3), mode="same") > 0
        # The u, w and p blocks of the unknowns each run over (column, row).
        in_strip = np.tile(np.repeat(in_strip, config.nz), 3)
        self.strip = np.flatnonzero(in_strip)
        self.exterior = np.flatnonzero(~in_strip)

        A_rows = self.A.tocsr()
        rows_S, rows_E = A_rows[self.strip], A_rows[self.exterior]
        self.A_SE = rows_S[:, self.exterior]
        self.A_ES = rows_E[:, self.strip].tocsc()
        self.lu_E = spla.splu(rows_E[:, self.exterior].tocsc(), permc_spec="MMD_ATA")

        # Strip unknowns the exterior couples to: nonempty rows of A_SE (CSR)
        # or columns of A_ES (CSC).
        touched = np.diff(self.A_SE.indptr) > 0
        touched |= np.diff(self.A_ES.indptr) > 0
        iface = np.flatnonzero(touched)
        A_JE = self.A_SE[iface]
        correction = np.empty((iface.size, iface.size))
        for k in range(0, iface.size, _CHUNK):
            cols = iface[k : k + _CHUNK]
            correction[:, k : k + _CHUNK] = A_JE @ self.lu_E.solve(self.A_ES[:, cols].toarray())
        dense = sp.coo_matrix(
            (correction.ravel(), (np.repeat(iface, iface.size), np.tile(iface, iface.size))),
            shape=(self.strip.size, self.strip.size),
        )
        self.strip_base = (rows_S[:, self.strip] - dense).tocsc()

    def factor(self, d: np.ndarray):
        """Solver for A0 + diag(d), given d zero outside the strip."""
        S, E = self.strip, self.exterior
        lu_S = spla.splu((self.strip_base + sp.diags(d[S])).tocsc())

        def solve(r: np.ndarray) -> np.ndarray:
            y = self.lu_E.solve(r[E])
            x = np.empty_like(r)
            x[S] = lu_S.solve(r[S] - self.A_SE @ y)
            x[E] = y - self.lu_E.solve(self.A_ES @ x[S])
            return x

        return solve


@functools.lru_cache(maxsize=1)
def _substructure(config: ChannelConfig) -> _Substructure:
    """The last channel's substructure; built on its first solve."""
    return _Substructure(config)


def solve_stokes(shape: AirfoilShape | None, config: ChannelConfig) -> FlowField:
    """Steady penalized Stokes solve; pass shape=None for the empty channel."""
    nx, nz = config.nx, config.nz
    d = _brinkman_diagonal(shape, config)
    sub = _substructure(config)
    A, b = sub.A + sp.diags(d), sub.b
    solve = sub.factor(d)
    x = solve(b)

    scale = max(float(np.abs(b).max()), 1e-300)
    residual = float(np.abs(b - A @ x).max()) / scale
    converged = residual <= config.solver_tol
    for _ in range(config.max_iters):
        if converged:
            break
        x = x + solve(b - A @ x)
        residual = float(np.abs(b - A @ x).max()) / scale
        converged = residual <= config.solver_tol

    n_u = nx * nz
    u = np.empty((nx + 1, nz))
    u[0, :] = config.inflow[0]
    u[1:, :] = x[:n_u].reshape(nx, nz)
    w = x[n_u : 2 * n_u].reshape(nx, nz)
    p = x[2 * n_u :].reshape(nx, nz)
    return FlowField(u1=u, u2=w, p=p, converged=converged, residual=residual)


def field_to_csv(field: FlowField, config: ChannelConfig, path) -> None:
    """Cell-centered (x, z, u1, u2) dump for plotting flow panels."""
    from .csvio import write_csv

    uc = 0.5 * (field.u1[:-1, :] + field.u1[1:, :])
    wc = 0.5 * (field.u2 + np.roll(field.u2, -1, axis=1))
    xc = (np.arange(config.nx) + 0.5) * config.dx
    zc = config.z_centers()
    write_csv(
        path,
        ["x", "z", "u1", "u2"],
        (
            (float(xc[i]), float(zc[j]), float(uc[i, j]), float(wc[i, j]))
            for i in range(config.nx)
            for j in range(config.nz)
        ),
        comment="mesopt flow field",
    )


def sample_line(field: FlowField, config: ChannelConfig) -> EvaluationProfile:
    """Linear interpolation of both components onto the evaluation line.

    One sample per grid row, at the cell-center heights.
    """
    nx, nz = config.nx, config.nz
    xe = config.line_E_x
    if not 0.0 < xe < config.Lx:
        raise FlowError(f"evaluation line x={xe} outside the channel")

    # u lives at x = i*dx: interpolate between the two bracketing faces.
    s = xe / config.dx
    i0 = min(int(np.floor(s)), nx - 1)
    t = s - i0
    u_line = (1.0 - t) * field.u1[i0, :] + t * field.u1[i0 + 1, :]

    # w lives at x = (i+0.5)*dx and z faces: interpolate in x, then average
    # the two faces bounding each cell row (periodic).
    sc = xe / config.dx - 0.5
    i0c = int(np.floor(sc))
    i0c = min(max(i0c, 0), nx - 2)
    tc = min(max(sc - i0c, 0.0), 1.0)
    w_x = (1.0 - tc) * field.u2[i0c, :] + tc * field.u2[i0c + 1, :]
    w_line = 0.5 * (w_x + np.roll(w_x, -1))

    return EvaluationProfile(z_samples=config.z_centers(), u1=u_line, u2=w_line)
