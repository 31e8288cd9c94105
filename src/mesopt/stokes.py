"""Desk-scale steady Stokes channel with a penalized solid airfoil.

Finite differences on a MAC staggered grid: u on vertical faces, w on
horizontal faces, p at cell centers.  Boundary conditions are Dirichlet
inflow (u_in, w_in) at x=0, vertically periodic walls, and an outflow
approximated by zero-gradient velocity with the outflow pressure pinned to
zero.  The solid is enforced by a Brinkman drag term K*chi*u on faces whose
location falls inside the airfoil band.  With unit viscosity the velocity
solution is independent of viscosity under these boundary conditions, so
none is exposed.

The discrete saddle system is (A0 + diag(K*chi)) x = b with

    A0 = [[Lu, 0, Gx], [0, Lw, Gz], [-Gx^T, -Gz^T, 0]],

built from 1-d stencils by Kronecker products: Lu and Lw are the x second
difference with the inflow and outflow ghosts folded into its boundary rows
plus the periodic z second difference, G is the pressure gradient with the
outflow pressure pinned, and continuity is -G^T.  The inflow enters only b.
It is solved directly, followed by iterative refinement against the whole
system until the relative residual drops below ``solver_tol``; continuity
therefore holds to machine precision, far below the 1e-6 * |inflow|
divergence contract.

The blade enters the system only as a diagonal term on its solid faces
(``_solid_faces``, the one rule for which faces are solid), so the direct
solve is substructured.  The strip is a set of cells that holds every solid
face; all other cells form the exterior, whose equations are the same for
every blade.  A solve takes its strip as ``envelope``: the
``blade_envelope`` of the blades a run can visit, or by default every cell
column that touches the chord band plus one on either side (no cell at
all for the empty channel).  Once per grid (nx, nz, dx, dz) and strip, on
its first solve, the exterior block is factored with sparse LU and its
effect on the strip is condensed into a dense correction on the few strip
unknowns that touch it; one set-up is
kept, whatever the inflow, along with the exterior solve of b for each
inflow.  Each blade then factors the strip's Schur complement, either as
a sparse LU or, when the set-up can afford a dense inverse on the strip's
velocity unknowns, as a dense capacitance matrix on the blade's solid
faces alone (``_Substructure`` gives the rule), and takes a strip and an
exterior triangular solve.  README's notes on the solver give the sizes
and timings.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import MIN_SAMPLES, AirfoilShape, AirfoilSpec

__all__ = [
    "FlowError",
    "ChannelConfig",
    "FlowField",
    "EvaluationProfile",
    "solve_stokes",
    "blade_envelope",
    "sample_line",
    "solid_mask",
]


class FlowError(RuntimeError):
    """Geometry does not fit the channel or the solve failed."""


@dataclass(frozen=True)
class ChannelConfig:
    """Channel geometry, inflow, discretization, solver knobs and the blade's sampling."""

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
    airfoil_e: float = AirfoilSpec.e  # camber amplitude of every blade
    n_shape_samples: int = 257  # surface samples per blade

    def __post_init__(self):
        if len(self.inflow) != 2:
            raise ValueError("inflow must be two numbers [u_in, w_in]")
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
        if self.n_shape_samples < MIN_SAMPLES:
            raise ValueError(f"n_shape_samples must be >= {MIN_SAMPLES}")
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
    refinements: int  # refinement passes taken after the direct solve

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
    return inside_chord & _in_band(z, shape.interp_lower(xc_clip), shape.interp_upper(xc_clip), config.Lz)


def _in_band(z, z_lo, z_up, period: float) -> np.ndarray:
    """Whether z lies between the surfaces z_lo and z_up, modulo the period."""
    return np.mod(z - z_lo, period) <= (z_up - z_lo)


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


def _solid_faces(shape: AirfoilShape, config: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(chi_u, chi_w), each (nx, nz): the u and w faces ``solid_mask`` selects.

    The one rule for which faces a blade makes solid; it first runs the
    channel fit check.  Only face columns on the chord can be solid, so
    ``solid_mask`` runs on those alone.
    """
    _check_fit(shape, config)
    faces = []
    for x, z in zip(_face_x(config), (config.z_centers(), config.z_faces())):
        on_chord = _chord_coordinate(config, x)[1]
        chi = np.zeros((config.nx, config.nz), dtype=bool)
        chi[on_chord] = solid_mask(shape, config, x[on_chord, None], z[None, :])
        faces.append(chi)
    return tuple(faces)


def blade_envelope(shapes: Iterable[AirfoilShape], config: ChannelConfig) -> np.ndarray:
    """Cells, (nx, nz), with a solid u or w face for at least one of the blades.

    A cell owns its east u face and its w face.  A blade that fails the
    channel fit check is skipped, since its own solve raises.  ``shapes``
    may be a generator.
    """
    cells = np.zeros((config.nx, config.nz), dtype=bool)
    for shape in shapes:
        try:
            chi_u, chi_w = _solid_faces(shape, config)
        except FlowError:
            continue
        cells |= chi_u | chi_w
    return cells


def _brinkman_diagonal(shape: AirfoilShape | None, config: ChannelConfig) -> np.ndarray:
    """K*chi on the u and w momentum rows of the system, zero elsewhere.

    This diagonal is the only part of the system that depends on the shape;
    it is nonzero only on faces in the chord band.
    """
    n = config.nx * config.nz
    d = np.zeros(3 * n)
    if shape is None:
        return d
    chi_u, chi_w = _solid_faces(shape, config)
    if not (chi_u.any() or chi_w.any()):
        raise FlowError(
            f"the solid mask selects no face: the blade is invisible to a "
            f"{config.nx}x{config.nz} grid"
        )
    d[:n] = config.penalization * chi_u.astype(float).ravel()
    d[n : 2 * n] = config.penalization * chi_w.astype(float).ravel()
    return d


def _matrix(nx: int, nz: int, dx: float, dz: float) -> sp.csc_matrix:
    """A0 = [[Lu, 0, Gx], [0, Lw, Gz], [-Gx^T, -Gz^T, 0]], the empty channel's operator.

    Lu and Lw are -laplacians, G the pressure gradient; continuity is -G^T.
    A blade adds ``_brinkman_diagonal`` to A0's diagonal; the inflow enters
    only ``_rhs``.
    """
    idx2, idz2 = 1.0 / dx**2, 1.0 / dz**2

    # The u, w and p blocks each run over (column, row).  format="csr" keeps
    # kron from storing a small stencil as dense blocks with explicit zeros.
    def along_x(m):
        return sp.kron(m, sp.identity(nz), format="csr")

    def along_z(m):
        return sp.kron(sp.identity(nx), m, format="csr")

    # -d2/dx2 on u faces i = 1..nx: u[0] is the Dirichlet inflow face (in b),
    # and the outflow ghost u[nx+1] = u[nx-1] doubles the last row's neighbour.
    xx_u = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nx, nx), format="lil")
    xx_u[nx - 1, nx - 2] = -2.0
    # -d2/dx2 on w faces i = 0..nx-1: ghosts w[-1] = 2*w_in - w[0] and w[nx] = w[nx-1].
    xx_w = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nx, nx), format="lil")
    xx_w[0, 0], xx_w[nx - 1, nx - 1] = 3.0, 1.0
    # Periodic -d2/dz2.
    zz = sp.diags([-1.0, -1.0, 2.0, -1.0, -1.0], [1 - nz, -1, 0, 1, nz - 1], shape=(nz, nz))
    lap_z = along_z(zz * idz2)
    lu = along_x(xx_u * idx2) + lap_z
    lw = along_x(xx_w * idx2) + lap_z
    # u face i lies between cells i-1 and i, with the outflow pressure p[nx]
    # pinned to 0; w face j between rows j-1 and j (periodic).
    gx = along_x(sp.diags([-1.0, 1.0], [0, 1], shape=(nx, nx)) * (1.0 / dx))
    gz = along_z(sp.diags([1.0, -1.0, -1.0], [0, -1, nz - 1], shape=(nz, nz)) * (1.0 / dz))
    return sp.bmat([[lu, None, gx], [None, lw, gz], [-gx.T, -gz.T, None]], format="csc")


def _rhs(config: ChannelConfig) -> np.ndarray:
    """b: the inflow enters only the rows of the first cell column."""
    nx, nz = config.nx, config.nz
    u_in, w_in = config.inflow
    n = nx * nz
    idx2 = 1.0 / config.dx**2
    b = np.zeros(3 * n)
    b[:nz] += u_in * idx2  # u faces at i = 1: Dirichlet inflow face
    b[n : n + nz] += 2.0 * w_in * idx2  # w faces at i = 0: ghost w[-1]
    b[2 * n : 2 * n + nz] += u_in / config.dx  # continuity of cells i = 0
    return b


#: Right-hand sides per blocked solve while building the interface
#: correction and G; bounds the dense block to n_exterior x _CHUNK floats.
_CHUNK = 64


def _column_strip(config: ChannelConfig) -> np.ndarray:
    """Cells, (nx, nz), of every column with a face in the chord band plus one on either side."""
    xu, xw = _face_x(config)
    on_band = _chord_coordinate(config, xu)[1] | _chord_coordinate(config, xw)[1]
    in_strip = np.convolve(on_band, np.ones(3), mode="same") > 0
    return np.repeat(in_strip[:, None], config.nz, axis=1)


class _Substructure:
    """The shape-free part of one channel's system, factored once.

    Unknowns split into the strip S, the u, w and p of the given cells (a
    cell owns its east u face and its w face), and the exterior E, all
    other cells.  Only S carries Brinkman terms, so the exterior block
    A0[E, E] and the interface correction A0[S, E] A0[E, E]^-1 A0[E, S]
    (dense, nonzero only on the strip unknowns that touch E) do not depend
    on the shape; nor does the strip's Schur complement S0 of the empty
    channel.  A shape adds diag(d) on its solid faces F to S0, and
    ``factor`` solves S0 + diag(d) in one of two ways:

    - capacitance: S0 is factored once here, with G = S0^-1 restricted to
      the strip's velocity unknowns V (the first |V| strip unknowns, as
      they run u, w, p), and a blade factors only the dense m x m
      capacitance matrix G[F, F] + diag(1/d_F), m = |F|;
    - strip LU: each blade factors S0 + diag(d) with sparse LU.

    G holds |V|^2 floats, so the capacitance path is taken only when that
    is no more than the exterior LU already holds, |V|^2 <= nnz(L + U).
    """

    def __init__(self, grid: tuple[int, int, float, float], cells: np.ndarray):
        self.A = _matrix(*grid)
        # The u, w and p blocks of the unknowns each run over (column, row).
        in_strip = np.tile(cells.ravel(), 3)
        self.strip = np.flatnonzero(in_strip)
        self.exterior = np.flatnonzero(~in_strip)

        A_rows = self.A.tocsr()
        rows_S, rows_E = A_rows[self.strip], A_rows[self.exterior]
        self.A_SE = rows_S[:, self.exterior]
        self.A_ES = rows_E[:, self.strip].tocsc()
        self.lu_E = spla.splu(rows_E[:, self.exterior].tocsc(), permc_spec="COLAMD")

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
        strip_base = (rows_S[:, self.strip] - dense).tocsc()
        del A_rows, rows_S, rows_E, correction, dense

        n_v = 2 * int(cells.sum())
        self.strip_base = self.lu_S = self.G = None
        if n_v**2 <= self.lu_E.nnz:
            self.lu_S = spla.splu(strip_base)
            del strip_base
            self.G = np.empty((n_v, n_v))
            unit = sp.identity(self.strip.size, format="csc")[:, :n_v]
            for k in range(0, n_v, _CHUNK):
                self.G[:, k : k + _CHUNK] = self.lu_S.solve(unit[:, k : k + _CHUNK].toarray())[:n_v]
        else:
            self.strip_base = strip_base
        self._exterior_b = {}  # inflow -> lu_E.solve(b[E]), which no shape changes

    def rhs(self, config: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
        """b for the config's inflow and its exterior solve, made once per inflow.

        b depends only on the grid, which keys this set-up, and the inflow.
        """
        b, key = _rhs(config), tuple(config.inflow)
        y = self._exterior_b.get(key)
        if y is None:
            y = self._exterior_b[key] = self.lu_E.solve(b[self.exterior])
        return b, y

    def factor(self, d: np.ndarray):
        """Solver for A0 + diag(d), given d zero outside the strip.

        It takes r and, if the caller has it, y = lu_E.solve(r[E]).
        """
        S, E = self.strip, self.exterior
        d_S = d[S]
        F = np.flatnonzero(d_S)
        if self.G is None:
            solve_S = spla.splu((self.strip_base + sp.diags(d_S)).tocsc()).solve
        elif F.size == 0:
            solve_S = self.lu_S.solve
        else:
            d_F = d_S[F]
            C = self.G[np.ix_(F, F)]
            C[np.diag_indices_from(C)] += 1.0 / d_F
            # C.T is Fortran-ordered, so LAPACK factors it in place; trans=1
            # then solves with C itself.  Unchecked, a non-finite value
            # reaches the residual and the solve reports no convergence.
            lu_C = la.lu_factor(C.T, overwrite_a=True, check_finite=False)

            def solve_S(rS: np.ndarray) -> np.ndarray:
                z = la.lu_solve(lu_C, self.lu_S.solve(rS)[F], trans=1, check_finite=False)
                rS[F] -= z
                x_S = self.lu_S.solve(rS)
                # x_F = z / d_F exactly; recovering it by subtraction, as
                # lu_S gives it, loses about log10(K) digits.
                x_S[F] = z / d_F
                return x_S

        def solve(r: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
            if y is None:
                y = self.lu_E.solve(r[E])
            x = np.empty_like(r)
            x[S] = solve_S(r[S] - self.A_SE @ y)
            x[E] = y - self.lu_E.solve(self.A_ES @ x[S])
            return x

        return solve


@functools.lru_cache(maxsize=1)
def _substructure(grid: tuple[int, int, float, float], cells: bytes) -> _Substructure:
    """The last set-up: the grid (nx, nz, dx, dz) ``_matrix`` reads and the packed strip cells."""
    nx, nz = grid[:2]
    return _Substructure(grid, np.frombuffer(cells, dtype=bool).reshape(nx, nz))


def _check_inside(shape: AirfoilShape | None, d: np.ndarray, envelope: np.ndarray) -> None:
    """Raise ValueError when the blade has a solid face outside the strip cells."""
    n = envelope.size
    outside = ((d[:n] != 0.0) | (d[n : 2 * n] != 0.0)) & ~envelope.ravel()
    if outside.any():
        blade = shape.spec if shape.spec is not None else f"with z extent {shape.z_extent()}"
        raise ValueError(
            f"blade {blade} has {int(outside.sum())} solid cells outside the strip "
            "envelope it was solved with"
        )


def solve_stokes(
    shape: AirfoilShape | None, config: ChannelConfig, envelope: np.ndarray | None = None
) -> FlowField:
    """Steady penalized Stokes solve; pass shape=None for the empty channel.

    ``envelope`` is the strip, an (nx, nz) cell mask such as
    ``blade_envelope`` returns, and must hold every solid face of the blade
    (ValueError otherwise); it defaults to ``_column_strip``, every cell
    column that touches the chord band plus one on either side.  The empty
    channel has no solid face, so its default strip is empty: the whole
    channel is exterior, and the set-up is one LU of A0.
    """
    nx, nz = config.nx, config.nz
    d = _brinkman_diagonal(shape, config)
    if envelope is not None:
        envelope = np.asarray(envelope, dtype=bool)
    elif shape is None:
        envelope = np.zeros((nx, nz), dtype=bool)
    else:
        envelope = _column_strip(config)
    if envelope.shape != (nx, nz):
        raise ValueError(f"envelope of shape {envelope.shape} on a {nx}x{nz} grid")
    _check_inside(shape, d, envelope)
    sub = _substructure((nx, nz, config.dx, config.dz), envelope.tobytes())
    solve = sub.factor(d)
    b, y_b = sub.rhs(config)
    x = solve(b, y_b)

    scale = max(float(np.abs(b).max()), 1e-300)
    r = b - sub.A @ x - d * x
    residual = float(np.abs(r).max()) / scale
    refinements = 0
    while not residual <= config.solver_tol and refinements < config.max_iters:
        x = x + solve(r)
        r = b - sub.A @ x - d * x
        residual = float(np.abs(r).max()) / scale
        refinements += 1

    n_u = nx * nz
    u = np.empty((nx + 1, nz))
    u[0, :] = config.inflow[0]
    u[1:, :] = x[:n_u].reshape(nx, nz)
    w = x[n_u : 2 * n_u].reshape(nx, nz)
    p = x[2 * n_u :].reshape(nx, nz)
    return FlowField(
        u1=u, u2=w, p=p, converged=residual <= config.solver_tol, residual=residual,
        refinements=refinements,
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
