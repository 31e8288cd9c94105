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

The blade enters the system only as one penalization K on its solid faces
(``_solid_faces``, the one rule for which faces are solid), so the direct
solve splits into a shape-free part, set up once, and a small per-blade
part that takes the faces and K.  A solve takes a strip of cells that
holds every solid face as ``envelope``: the cells of the blades a run can
visit, or by default the blade's own solid cells (none for the empty
channel).  ``blade_faces`` runs the rule on blocks of blades at once; a
caller that keeps a blade's faces from that pass hands them to the solve
with the envelope the pass built, and the solve skips the rule.  Either
way their cells (``solid_cells``) must lie in the strip.  Blades opened
together (``solving_together``) share one pass of the set-up, made by the
first solve of any of them; each is still returned by its own solve.  The
set-ups that factor the system live in ``_solver``, the one module of the solver
that runs on scipy; ``solve_stokes`` imports it on the first solve, so a
process that never solves a channel never loads scipy.

README's notes on the solver give the sizes and timings.
"""

from __future__ import annotations

import contextlib
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import MIN_SAMPLES, AirfoilShape, AirfoilSpec

__all__ = [
    "FlowError",
    "ChannelConfig",
    "FlowField",
    "EvaluationProfile",
    "solve_stokes",
    "solving_together",
    "blade_faces",
    "solid_cells",
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
    """Whether z lies between the surfaces z_lo and z_up, modulo the period.

    That is np.mod(z - z_lo, period) <= z_up - z_lo.  np.mod is fmod plus
    the period on a negative remainder, so this takes fmod and adds the
    period itself, at a third of np.mod's cost and with the same bits; only
    a remainder of -0.0 stays -0.0 where np.mod gives +0.0, and both compare
    the same.
    """
    r = np.asarray(z - z_lo, dtype=float)
    np.fmod(r, period, out=r)
    np.add(r, period, out=r, where=r < 0.0)
    return r <= (z_up - z_lo)


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


def _solid_faces(shapes: Sequence[AirfoilShape], config: ChannelConfig) -> np.ndarray:
    """(k, 2 nx nz) bool: for each of k blades, the u and w faces ``solid_mask`` selects.

    The one rule for which faces a blade makes solid, in the order the u
    and w unknowns run; a lone blade is a batch of one.  Only face columns
    on the chord can be solid, so the band test runs on those alone, for
    all k blades at once.  The caller runs the channel fit check.
    """
    nx, nz = config.nx, config.nz
    chi = np.zeros((len(shapes), 2, nx, nz), dtype=bool)
    for k, (x, z) in enumerate(zip(_face_x(config), (config.z_centers(), config.z_faces()))):
        xc, on_chord = _chord_coordinate(config, x)
        xc = xc[on_chord]
        # (k, columns, 1): each blade's surfaces over the chord's columns.
        z_lo = np.array([shape.interp_lower(xc) for shape in shapes])[:, :, None]
        z_up = np.array([shape.interp_upper(xc) for shape in shapes])[:, :, None]
        chi[:, k, on_chord] = _in_band(z, z_lo, z_up, config.Lz)
    return chi.reshape(len(shapes), -1)


#: Velocity faces per block of blades in ``blade_faces``.  A block's band
#: test holds a 1 MB mask and a float per face of its chord's columns: at
#: most 4 MB, and 1 MB on the shipped channels, whose chord spans a quarter
#: of the columns.
_FACES_PER_BLOCK = 2**20


def blade_faces(
    shapes: Iterable[AirfoilShape], config: ChannelConfig
) -> Iterator[tuple[AirfoilShape, np.ndarray]]:
    """Each blade that fits the channel, with its solid faces.

    The faces are positions into the u and w unknowns, in order, as
    ``solve_stokes`` takes them, in the smallest unsigned integer type
    that holds them (uint16 up to 32,768 cells).  A blade that fails the
    channel fit check is skipped, since its own solve raises.  The blades
    are taken in blocks, each one ``_solid_faces`` call, so ``shapes`` may
    be a long generator.
    """
    n_faces = 2 * config.nx * config.nz
    per_block = max(1, _FACES_PER_BLOCK // n_faces)
    position = np.min_scalar_type(n_faces - 1)

    def fitting():
        for shape in shapes:
            try:
                _check_fit(shape, config)
            except FlowError:
                continue
            yield shape

    blades = fitting()
    while block := list(itertools.islice(blades, per_block)):
        for shape, chi in zip(block, _solid_faces(block, config)):
            yield shape, np.flatnonzero(chi).astype(position)


def _lone_faces(shape: AirfoilShape | None, config: ChannelConfig) -> np.ndarray:
    """The rule and the fit check for one blade, as a solve given no faces runs them.

    A blade the rule cannot see is an error; the empty channel has no face.
    """
    if shape is None:
        return np.empty(0, dtype=np.intp)
    _check_fit(shape, config)
    (chi,) = _solid_faces([shape], config)
    if not chi.any():
        raise FlowError(
            f"the solid mask selects no face: the blade is invisible to a "
            f"{config.nx}x{config.nz} grid"
        )
    return np.flatnonzero(chi)


def solid_cells(faces: np.ndarray, config: ChannelConfig) -> np.ndarray:
    """Cells, (nx, nz), whose u or w face is among ``faces``: face k is cell k mod nx nz's."""
    n = config.nx * config.nz
    cells = np.zeros(n, dtype=bool)
    cells[faces % n] = True
    return cells.reshape(config.nx, config.nz)


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


def _check_inside(shape: AirfoilShape | None, cells: np.ndarray, envelope: np.ndarray) -> None:
    """Raise ValueError when one of the blade's solid cells lies outside the strip."""
    outside = cells & ~envelope
    if outside.any():
        blade = shape.spec if shape.spec is not None else f"with z extent {shape.z_extent()}"
        raise ValueError(
            f"blade {blade} has {int(outside.sum())} solid cells outside the strip "
            "envelope it was solved with"
        )


class _Group:
    """Blades that ``solving_together`` opened: their faces until the first solve, then their fields.

    The fields are keyed by the faces' bytes, and each is handed out once.
    """

    def __init__(self, blades: list[np.ndarray], config: ChannelConfig, strip: bytes):
        self.config, self.strip = config, strip
        self.blades = {faces.tobytes(): faces for faces in blades}
        self.fields = None

    def take(self, faces: np.ndarray, config: ChannelConfig, strip: bytes) -> FlowField | None:
        """The field of a member, the whole group solved on the first call; None for a non-member."""
        key = faces.tobytes()
        if key not in self.blades or config != self.config or strip != self.strip:
            return None
        if self.fields is None:
            self.fields = dict(zip(self.blades, _solve(list(self.blades.values()), config, strip)))
        del self.blades[key]
        return self.fields.pop(key)


_group: _Group | None = None  # open only inside ``solving_together``


@contextlib.contextmanager
def solving_together(blades: Iterable[np.ndarray], config: ChannelConfig, envelope: np.ndarray):
    """Within the block, the first ``solve_stokes`` of one of these blades solves them all.

    ``blades`` are solid faces as ``blade_faces`` gives them, from the pass
    that built ``envelope``.  Each blade's field is still returned by its
    own ``solve_stokes`` call, with these config and envelope and its faces,
    with the same bits as a solve of that blade alone; a blade whose cells
    leave the envelope is left to its own call, which raises.  The fields
    not yet handed out go with the block.
    """
    global _group
    blades = [faces for faces in blades if not (solid_cells(faces, config) & ~envelope).any()]
    outer, _group = _group, _Group(blades, config, envelope.tobytes())
    try:
        yield
    finally:
        _group = outer


def solve_stokes(
    shape: AirfoilShape | None,
    config: ChannelConfig,
    envelope: np.ndarray | None = None,
    faces: np.ndarray | None = None,
) -> FlowField:
    """Steady penalized Stokes solve; pass shape=None for the empty channel.

    ``envelope`` is the strip, an (nx, nz) cell mask, and must hold every
    solid face of the blade (ValueError otherwise); it defaults to the
    blade's own solid cells, so each blade solved without one pays its own
    set-up.  The empty channel has no solid face, so its default strip is
    empty, and the set-up is one Fourier factorization of A0.

    ``faces`` are the blade's solid faces as ``blade_faces`` gave them for
    this config, from the pass that built ``envelope``; the solve then takes
    them in place of the rule and its fit check, which that pass ran.
    Either way the faces' cells must lie in the envelope.  A blade of an
    open ``solving_together`` block is solved with the rest of its group.
    """
    nx, nz = config.nx, config.nz
    if faces is None:
        faces = _lone_faces(shape, config)
    elif envelope is None:
        raise ValueError("faces come with the envelope their pass built")
    cells = solid_cells(faces, config)
    envelope = cells if envelope is None else np.asarray(envelope, dtype=bool)
    if envelope.shape != (nx, nz):
        raise ValueError(f"envelope of shape {envelope.shape} on a {nx}x{nz} grid")
    _check_inside(shape, cells, envelope)
    strip = envelope.tobytes()
    field = _group.take(faces, config, strip) if _group is not None else None
    return field if field is not None else _solve([faces], config, strip)[0]


def _solve(blades: list[np.ndarray], config: ChannelConfig, strip: bytes) -> list[FlowField]:
    """The fields of blades, given as their solid faces, on the packed strip cells.

    The blades' first solves of b take one pass of the set-up, and one
    sparse product gives all their residuals.  A blade that misses
    ``solver_tol`` is factored again for its refinement passes.
    """
    from . import _solver  # scipy loads on the first solve, not on import

    nx, nz, K = config.nx, config.nz, config.penalization
    sub = _solver._substructure((nx, nz, config.dx, config.dz), strip)
    b, y_b = sub.rhs(config)
    X = sub.solve_group(blades, K, b, y_b)
    R = b - (sub.A @ X.T).T
    scale = max(float(np.abs(b).max()), 1e-300)
    fields = []
    for faces, x, r in zip(blades, X, R):
        r[faces] -= K * x[faces]
        residual = float(np.abs(r).max()) / scale
        refinements, solve = 0, None
        while not residual <= config.solver_tol and refinements < config.max_iters:
            solve = solve or sub.factor(faces, K)
            x = x + solve(r)
            r = b - sub.A @ x
            r[faces] -= K * x[faces]
            residual = float(np.abs(r).max()) / scale
            refinements += 1

        n_u = nx * nz
        u = np.empty((nx + 1, nz))
        u[0, :] = config.inflow[0]
        u[1:, :] = x[:n_u].reshape(nx, nz)
        fields.append(
            FlowField(
                u1=u, u2=x[n_u : 2 * n_u].reshape(nx, nz), p=x[2 * n_u :].reshape(nx, nz),
                converged=residual <= config.solver_tol, residual=residual, refinements=refinements,
            )
        )
    return fields


def sample_line(field: FlowField, config: ChannelConfig) -> EvaluationProfile:
    """Linear interpolation of both components onto the evaluation line.

    One sample per grid row, at the cell-center heights.
    """
    nx, nz = config.nx, config.nz
    xe = config.line_E_x  # ChannelConfig keeps it inside the channel, past the trailing edge

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
