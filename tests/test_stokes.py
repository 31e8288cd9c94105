import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import column_strip, dense_g, direct_solve, penalized_system, unit_table, vector_fourier_solve

from mesopt import _solver, stokes
from mesopt.geometry import AirfoilShape, AirfoilSpec, build_airfoil
from mesopt.grid import ParameterGrid
from mesopt.objectives import _grid_envelope, reward_R1, reward_R2
from mesopt.stokes import (
    ChannelConfig,
    FlowError,
    sample_line,
    solid_mask,
    solve_stokes,
)

SMALL = dict(nx=48, nz=24)


@pytest.fixture
def strips(monkeypatch):
    """The strip cells of each set-up the solves ask for, in call order."""
    setup, cells_seen = _solver._substructure, []

    def recording(grid, cells):
        cells_seen.append(np.frombuffer(cells, dtype=bool).reshape(grid[:2]))
        return setup(grid, cells)

    monkeypatch.setattr(_solver, "_substructure", recording)
    return cells_seen


@pytest.fixture(scope="module")
def small_airfoil_field():
    cfg = ChannelConfig(**SMALL)
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    return shape, cfg, solve_stokes(shape, cfg)


def test_empty_channel_recovers_uniform_inflow():
    cfg = ChannelConfig(**SMALL)
    field = solve_stokes(None, cfg)
    assert field.converged
    np.testing.assert_allclose(field.u1, 1.0, atol=1e-8)
    np.testing.assert_allclose(field.u2, 0.75, atol=1e-8)


@pytest.mark.parametrize("inflow", [(1.0,), (1.0, 0.75, 0.5)])
def test_channel_config_takes_two_inflow_numbers(inflow):
    # Built directly, as by the config reader: the rule is the class's own.
    with pytest.raises(ValueError, match=r"inflow must be two numbers \[u_in, w_in\]"):
        ChannelConfig(nx=8, nz=8, inflow=inflow)


def test_empty_channel_horizontal_inflow_has_no_vertical_component():
    cfg = ChannelConfig(inflow=(1.0, 0.0), **SMALL)
    profile = sample_line(solve_stokes(None, cfg), cfg)
    np.testing.assert_allclose(profile.u2, 0.0, atol=1e-8)


def test_airfoil_solve_converges_with_tiny_divergence(small_airfoil_field):
    _, cfg, field = small_airfoil_field
    assert field.converged
    inflow_mag = np.hypot(*cfg.inflow)
    assert np.abs(field.divergence(cfg)).max() <= 1e-6 * inflow_mag


def test_penalization_suppresses_velocity_inside_solid(small_airfoil_field):
    shape, cfg, field = small_airfoil_field
    xu = np.arange(1, cfg.nx + 1) * cfg.dx
    chi = solid_mask(shape, cfg, xu[:, None], cfg.z_centers()[None, :])
    assert chi.any()
    assert np.abs(field.u1[1:, :][chi]).max() < 1e-3


def test_solver_linearity(small_airfoil_field):
    # Stokes is linear: scaling the inflow scales the field; with a direct
    # solve the scaling is exact to roundoff.  R1 is a ratio (invariant),
    # R2 carries velocity units (scales).
    from mesopt.objectives import reward_R1, reward_R2

    shape, cfg, field = small_airfoil_field
    cfg2 = ChannelConfig(inflow=(2.0, 1.5), **SMALL)
    field2 = solve_stokes(shape, cfg2)
    p1 = sample_line(field, cfg)
    p2 = sample_line(field2, cfg2)
    np.testing.assert_allclose(p2.u1, 2.0 * p1.u1, rtol=1e-6)
    np.testing.assert_allclose(p2.u2, 2.0 * p1.u2, rtol=1e-6, atol=1e-12)
    assert reward_R1(p2) == pytest.approx(reward_R1(p1), abs=1e-8)
    assert reward_R2(p2) == pytest.approx(2.0 * reward_R2(p1), rel=1e-8)


def test_near_two_b_beats_large_b():
    # At fixed f, thickness grows with b, so the objective prefers b near 2.
    from mesopt.objectives import StokesObjective

    obj = StokesObjective(ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36))
    assert obj((2.0, 2.1)) < obj((2.0, 3.5))


def test_grid_refinement_consistency():
    # Doubling the resolution moves the objective by less than 10%.
    from mesopt.objectives import reward_R1, reward_R2

    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    values = []
    for nx, nz in [(48, 24), (96, 48)]:
        cfg = ChannelConfig(nx=nx, nz=nz)
        profile = sample_line(solve_stokes(shape, cfg), cfg)
        values.append(reward_R1(profile) + reward_R2(profile))
    assert abs(values[1] - values[0]) < 0.1 * abs(values[0])


def test_protruding_geometry_rejected():
    cfg = ChannelConfig(**SMALL)  # Lz = 2 cannot hold a b=4 profile
    shape = build_airfoil(AirfoilSpec(f=2.0, b=4.0), 257)
    assert shape.z_extent()[0] < -1.0
    with pytest.raises(FlowError):
        solve_stokes(shape, cfg)


def test_line_sampling_uniform_field():
    cfg = ChannelConfig(**SMALL)
    field = solve_stokes(None, cfg)
    profile = sample_line(field, cfg)
    assert profile.u1.shape == (cfg.nz,)
    assert profile.z_samples.shape == (cfg.nz,)
    np.testing.assert_allclose(profile.u1, 1.0, atol=1e-8)
    np.testing.assert_allclose(profile.u2, 0.75, atol=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(line_E_x=1.5)  # not past the trailing edge
    with pytest.raises(ValueError):
        ChannelConfig(line_E_x=4.0)  # not inside the outflow boundary
    with pytest.raises(ValueError):
        ChannelConfig(leading_edge_x=3.5)  # the chord ends past the outflow boundary
    with pytest.raises(ValueError):
        ChannelConfig(penalization=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(solver_tol=-1.0)


def test_solve_determinism(small_airfoil_field):
    shape, cfg, field = small_airfoil_field
    again = solve_stokes(shape, cfg)
    np.testing.assert_array_equal(field.u1, again.u1)
    np.testing.assert_array_equal(field.u2, again.u2)
    np.testing.assert_array_equal(field.p, again.p)


def test_negative_thickness_rejected():
    # Surfaces swapped by hand: the upper one runs below the lower one, and
    # the solid mask would select nothing.
    good = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    swapped = AirfoilShape(x_samples=good.x_samples, z_upper=good.z_lower, z_lower=good.z_upper)
    with pytest.raises(FlowError, match="negative"):
        solve_stokes(swapped, ChannelConfig(**SMALL))


def test_blade_between_grid_faces_rejected():
    # A slab 0.01 thick between the face row at z = 0 and the cell centres
    # at z = 1/24: no u or w face of the 48x24 grid (dz = 1/12) lies inside.
    x = np.linspace(0.0, 1.0, 33)
    slab = AirfoilShape(x_samples=x, z_upper=np.full_like(x, 0.02), z_lower=np.full_like(x, 0.01))
    with pytest.raises(FlowError, match="selects no face"):
        solve_stokes(slab, ChannelConfig(**SMALL))


def _stacked(field):
    return np.concatenate([field.u1[1:].ravel(), field.u2.ravel(), field.p.ravel()])


@settings(max_examples=8, deadline=None)
@given(st.floats(1.0, 3.0), st.floats(2.0, 4.0))
def test_property_substructured_solve_matches_direct_lu(f, b):
    # The strip/exterior solve against one sparse LU of the whole system.
    cfg = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    shape = build_airfoil(AirfoilSpec(f=f, b=b), 257)
    direct = direct_solve(stokes._lone_faces(shape, cfg), cfg, stokes._rhs(cfg))
    field = solve_stokes(shape, cfg)
    assert field.converged
    assert np.abs(_stacked(field) - direct).max() <= 1e-8 * np.abs(direct).max()


def test_cold_and_warm_solves_are_bitwise_equal():
    cfg = ChannelConfig(**SMALL)
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    _solver._substructure.cache_clear()
    cold = solve_stokes(shape, cfg)
    warm = solve_stokes(shape, cfg)
    solve_stokes(shape, ChannelConfig(nx=40, nz=24))  # evicts cfg
    rebuilt = solve_stokes(shape, cfg)
    for again in (warm, rebuilt):
        np.testing.assert_array_equal(_stacked(cold), _stacked(again))
        assert again.residual == cold.residual


def test_configs_differing_in_inflow_share_one_setup():
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    other = ChannelConfig(inflow=(2.0, 1.5), penalization=1e5, **SMALL)
    _solver._substructure.cache_clear()
    fresh = solve_stokes(shape, other)
    _solver._substructure.cache_clear()
    solve_stokes(shape, ChannelConfig(**SMALL))
    shared = solve_stokes(shape, other)
    assert _solver._substructure.cache_info().misses == 1
    np.testing.assert_array_equal(_stacked(shared), _stacked(fresh))
    solve_stokes(shape, ChannelConfig(**SMALL))
    again = solve_stokes(shape, other)  # both inflows' exterior solves of b are kept now
    np.testing.assert_array_equal(_stacked(again), _stacked(fresh))
    solve_stokes(shape, ChannelConfig(leading_edge_x=0.5, **SMALL))  # the strip moves
    assert _solver._substructure.cache_info().misses == 2


def test_blade_at_inflow_face_solves(strips):
    # leading_edge_x = 0 puts the default strip against the inflow: it
    # holds cells of column 0, so no exterior lies upstream of them.
    cfg = ChannelConfig(leading_edge_x=0.0, **SMALL)
    field = solve_stokes(build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257), cfg)
    (cells,) = strips
    assert cells[0].any()
    assert field.converged
    assert np.abs(field.divergence(cfg)).max() <= 1e-6 * np.hypot(*cfg.inflow)


def _node_cells(shape, cfg):
    """Cells with a solid u or w face."""
    n = cfg.nx * cfg.nz
    cells = np.zeros(n, dtype=bool)
    cells[stokes._lone_faces(shape, cfg) % n] = True
    return cells.reshape(cfg.nx, cfg.nz)


def _check_envelope_against_column_strip(cfg, grid, interior):
    # (a) The envelope holds every node's solid faces, and its table each
    # node's faces as the rule gives them; (b) at the four corners and one
    # interior node the envelope solve matches the column strip's, and both
    # meet solver_tol.
    shapes = {p: build_airfoil(AirfoilSpec(*grid.theta(p)), 257) for p in grid.points()}
    envelope, table = _grid_envelope(grid, cfg)
    union = np.zeros_like(envelope)
    for shape in shapes.values():
        cells = _node_cells(shape, cfg)
        assert not (cells & ~envelope).any()
        union |= cells
        np.testing.assert_array_equal(table[shape.spec], stokes._lone_faces(shape, cfg))
    np.testing.assert_array_equal(envelope, union)  # and nothing more

    (n_f, n_b) = grid.shape
    corners = [(i, j) for i in (0, n_f - 1) for j in (0, n_b - 1)]
    nodes = corners + [interior]
    in_envelope = [solve_stokes(shapes[p], cfg, envelope=envelope) for p in nodes]
    in_columns = [solve_stokes(shapes[p], cfg, envelope=column_strip(cfg)) for p in nodes]
    for a, b in zip(in_envelope, in_columns):
        assert a.converged and a.residual <= cfg.solver_tol
        assert b.converged and b.residual <= cfg.solver_tol
        xa, xb = _stacked(a), _stacked(b)
        assert np.abs(xa - xb).max() <= 1e-8 * np.abs(xb).max()
    return shapes


@st.composite
def _grids(draw, f_lo, b_lo, b_max):
    """A small (f, b) grid of 2 to 4 nodes a side, and one drawn node."""
    f0, b0 = draw(st.floats(*f_lo)), draw(st.floats(*b_lo))
    n_f, n_b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    step = draw(st.floats(0.05, 0.3))
    step_b = min(step, (b_max - b0) / (n_b - 1))
    grid = ParameterGrid((f0, b0), (f0 + step * (n_f - 1), b0 + step_b * (n_b - 1)), (step, step_b))
    n_f, n_b = grid.shape
    return grid, (draw(st.integers(0, n_f - 1)), draw(st.integers(0, n_b - 1)))


@settings(max_examples=6, deadline=None)
@given(_grids(f_lo=(1.0, 3.0), b_lo=(1.5, 3.0), b_max=4.0))
def test_property_envelope_holds_every_blade_and_matches_column_strip(case):
    grid, interior = case
    _check_envelope_against_column_strip(ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36), grid, interior)


@settings(max_examples=4, deadline=None)
@given(_grids(f_lo=(1.0, 3.0), b_lo=(3.3, 3.6), b_max=4.0))
def test_property_envelope_of_blades_that_wrap_the_period(case):
    # Lz = 3: the thickest blades (b near 4, 2.9 chords thick) cross the
    # periodic boundary at z = -Lz/2, so the envelope wraps.
    grid, interior = case
    cfg = ChannelConfig(Lx=4.0, Lz=3.0, nx=48, nz=24)
    shapes = _check_envelope_against_column_strip(cfg, grid, interior)
    assert any(s.z_extent()[0] < -cfg.Lz / 2 for s in shapes.values())


def test_blade_outside_the_envelope_is_a_caller_error():
    from mesopt.objectives import StokesObjective

    cfg = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    grid = ParameterGrid((2.0, 2.0), (2.2, 2.2), (0.1, 0.1))
    obj = StokesObjective(cfg, grid=grid)
    obj((2.1, 2.1))
    with pytest.raises(ValueError, match=r"blade AirfoilSpec\(f=3.5, b=3.5.*outside the strip") as info:
        obj((3.5, 3.5))  # off the grid and thicker than any of its blades
    assert type(info.value) is ValueError  # neither a GeometryError nor a FlowError


def test_refinements_count_the_passes_taken(small_airfoil_field):
    _, _, field = small_airfoil_field
    assert field.refinements == 0
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    strict = ChannelConfig(solver_tol=1e-300, max_iters=3, **SMALL)
    assert solve_stokes(shape, strict).refinements == 3


def _loop_matrix(nx, nz, dx, dz):
    """A0 assembled row block by row block, one cell column at a time.

    The operator's definition written out stencil entry by stencil entry:
    u momentum on faces i = 1..nx, w momentum on faces i = 0..nx-1 (periodic
    in j), then continuity per cell.
    """
    n_u = n_w = n_p = nx * nz

    def iu(i, j):  # i in 1..nx
        return (i - 1) * nz + j

    def iw(i, j):  # i in 0..nx-1
        return n_u + i * nz + j

    def ip(i, j):
        return n_u + n_w + i * nz + j

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, r.shape).ravel().astype(float))

    J = np.arange(nz)
    jp, jm = (J + 1) % nz, (J - 1) % nz
    idx2, idz2 = 1.0 / dx**2, 1.0 / dz**2
    for i in range(1, nx + 1):
        r = iu(i, J)
        add(r, r, 2.0 * idx2 + 2.0 * idz2)
        add(r, iu(i, jp), -idz2)
        add(r, iu(i, jm), -idz2)
        if i == nx:
            add(r, iu(nx - 1, J), -2.0 * idx2)  # ghost u[nx+1] = u[nx-1]
            add(r, ip(nx - 1, J), -1.0 / dx)  # outflow pressure pinned to 0
        else:
            add(r, iu(i + 1, J), -idx2)
            if i - 1 >= 1:  # else u[0] is the Dirichlet inflow face, in b
                add(r, iu(i - 1, J), -idx2)
            add(r, ip(i, J), 1.0 / dx)
            add(r, ip(i - 1, J), -1.0 / dx)
    for i in range(nx):
        r = iw(i, J)
        # ghosts w[-1] = 2*w_in - w[0] and w[nx] = w[nx-1]
        diag_x = 3.0 * idx2 if i == 0 else 1.0 * idx2 if i == nx - 1 else 2.0 * idx2
        add(r, r, diag_x + 2.0 * idz2)
        add(r, iw(i, jp), -idz2)
        add(r, iw(i, jm), -idz2)
        if i + 1 <= nx - 1:
            add(r, iw(i + 1, J), -idx2)
        if i - 1 >= 0:
            add(r, iw(i - 1, J), -idx2)
        add(r, ip(i, J), 1.0 / dz)
        add(r, ip(i, jm), -1.0 / dz)
    for i in range(nx):
        r = ip(i, J)
        add(r, iu(i + 1, J), 1.0 / dx)
        if i >= 1:
            add(r, iu(i, J), -1.0 / dx)
        add(r, iw(i, jp), 1.0 / dz)
        add(r, iw(i, J), -1.0 / dz)
    n = n_u + n_w + n_p
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.integers(4, 12), st.floats(0.5, 9.0), st.floats(0.5, 9.0))
@example(96, 72, 4.0, 6.0)
@example(192, 96, 4.0, 3.0)
def test_property_kron_operator_is_the_loop_operator(nx, nz, Lx, Lz):
    # The block operator from 1-d stencils stores exactly the loop's CSR
    # arrays: same structure, same bits, no explicit zeros.
    dx, dz = Lx / nx, Lz / nz
    got, want = _solver._matrix(nx, nz, dx, dz), _loop_matrix(nx, nz, dx, dz)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_default_strip_is_the_blades_own_cells(strips):
    # No envelope means the blade's own solid cells, and no cell at all for
    # the empty channel; the field matches the column strip's.
    cfg = ChannelConfig(**SMALL)
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    default = solve_stokes(shape, cfg)
    solve_stokes(None, cfg)
    columns = solve_stokes(shape, cfg, envelope=column_strip(cfg))
    own, empty, _ = strips
    np.testing.assert_array_equal(own, _node_cells(shape, cfg))
    assert not empty.any()
    assert default.converged and columns.converged
    xa, xb = _stacked(default), _stacked(columns)
    assert np.abs(xa - xb).max() <= 1e-8 * np.abs(xb).max()


@pytest.mark.parametrize(
    "cfg",
    [
        ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36),
        ChannelConfig(Lx=4.0, Lz=3.0, nx=48, nz=24),  # blades wrap the period
        ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36, leading_edge_x=0.0),  # the chord starts at the inflow
    ],
    ids=["48x36", "48x24-wrap", "48x36-inflow"],
)
def test_solid_faces_are_the_all_column_mask(cfg):
    # _solid_faces evaluates solid_mask on chord columns only, for a batch
    # of blades at once; every blade of the grid, corners included, gets
    # the mask of all columns, in a batch as on its own.
    grid = ParameterGrid((1.5, 1.5), (4.0, 4.0), (0.5, 0.5))
    xu, xw = stokes._face_x(cfg)
    shapes = [build_airfoil(AirfoilSpec(*grid.theta(p)), 257) for p in grid.points()]
    batch = stokes._solid_faces(shapes, cfg)
    for shape, chi in zip(shapes, batch):
        np.testing.assert_array_equal(chi, stokes._solid_faces([shape], cfg)[0])
        chi_u, chi_w = chi.reshape(2, cfg.nx, cfg.nz)
        np.testing.assert_array_equal(chi_u, solid_mask(shape, cfg, xu[:, None], cfg.z_centers()[None, :]))
        np.testing.assert_array_equal(chi_w, solid_mask(shape, cfg, xw[:, None], cfg.z_faces()[None, :]))


#: The channel of configs/stokes_optimize.json at half its resolution, and its grid.
SHIFT_CHANNEL = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
SHIFT_GRID = ParameterGrid((1.5, 1.5), (4.0, 4.0), (0.1, 0.1))


def _shifted(shape, k, cfg):
    """The blade moved up by k rows: both surfaces raised by k dz."""
    return AirfoilShape(shape.x_samples, shape.z_upper + k * cfg.dz, shape.z_lower + k * cfg.dz)


def _rolled_faces(faces, k, cfg):
    """Solid faces moved up by k rows, wrapping the period: the mask rolled along z."""
    chi = np.zeros(2 * cfg.nx * cfg.nz, dtype=bool)
    chi[faces] = True
    return np.flatnonzero(np.roll(chi.reshape(2, cfg.nx, cfg.nz), k, axis=2))


def _reward(shape, cfg, faces):
    """R = R1 + R2 of the blade solved with the given faces on their own cells."""
    field = solve_stokes(shape, cfg, envelope=stokes.solid_cells(faces, cfg), faces=faces)
    assert field.converged
    profile = sample_line(field, cfg)
    return reward_R1(profile) + reward_R2(profile)


def _band_distance(shape, cfg, faces):
    """Per face, how far its height lies from the blade's band edges, modulo the period."""
    kind, i, j = np.unravel_index(faces, (2, cfg.nx, cfg.nz))
    x = np.where(kind == 0, stokes._face_x(cfg)[0][i], stokes._face_x(cfg)[1][i])
    z = np.where(kind == 0, cfg.z_centers()[j], cfg.z_faces()[j])
    xc = np.clip(x - cfg.leading_edge_x, 0.0, 1.0)
    z_lo, z_up = shape.interp_lower(xc), shape.interp_upper(xc)
    r = np.mod(z - z_lo, cfg.Lz)
    return np.minimum(np.minimum(r, cfg.Lz - r), np.abs(r - (z_up - z_lo)))


@settings(max_examples=24, deadline=None)
@given(st.tuples(*(st.integers(0, n - 1) for n in SHIFT_GRID.shape)), st.sampled_from([1, 5]))
@example((20, 0), 1)  # f = 3.5: the trailing-edge tie pinned below
def test_property_whole_row_shift_rolls_the_mask_and_keeps_the_reward(node, k):
    # The walls are periodic and the inflow uniform, so raising a grid
    # blade by k whole rows must roll its solid faces by k rows and leave
    # R alone.  The rule's mask of the raised blade is the rolled mask but
    # at faces that lie on a band edge to roundoff (the trailing-edge tie
    # below), and a solve on the rolled faces gives R to 1e-9.
    cfg = SHIFT_CHANNEL
    shape = build_airfoil(AirfoilSpec(*SHIFT_GRID.theta(node), e=cfg.airfoil_e), cfg.n_shape_samples)
    faces = stokes._lone_faces(shape, cfg)
    rolled = _rolled_faces(faces, k, cfg)
    raised = _shifted(shape, k, cfg)
    moved = np.setxor1d(stokes._lone_faces(raised, cfg), rolled)
    assert np.all(_band_distance(raised, cfg, moved) <= 1e-12)
    assert abs(_reward(raised, cfg, rolled) - _reward(shape, cfg, faces)) <= 1e-9


def test_trailing_edge_tie_moves_the_reward_of_f_3_5():
    # Known fault: the band test counts a face on a zero-thickness edge as
    # solid.  At 48x36 the trailing edge of every f = 3.5 blade, at height
    # e (f - 1) = 0.75, lies exactly on the centre of row 22, so the rule
    # makes that one u face (x = 2.0) solid; raised by one row, the edge
    # misses row 23's centre by an ulp and the face is open.  That one face
    # is worth 0.174 of R at (3.5, 1.5).  A rule without the tie should
    # close this face and this gap; update the test with that change.
    cfg = SHIFT_CHANNEL
    shape = build_airfoil(AirfoilSpec(3.5, 1.5, e=cfg.airfoil_e), cfg.n_shape_samples)
    faces = stokes._lone_faces(shape, cfg)
    raised = _shifted(shape, 1, cfg)
    raised_faces = stokes._lone_faces(raised, cfg)
    edge = np.ravel_multi_index((0, 23, 22), (2, cfg.nx, cfg.nz))
    assert np.setxor1d(raised_faces, _rolled_faces(faces, 1, cfg)).tolist() == [edge + 1]
    assert _band_distance(shape, cfg, np.array([edge])).tolist() == [0.0]
    gap = _reward(raised, cfg, raised_faces) - _reward(shape, cfg, faces)
    assert -0.18 < gap < -0.17


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_finite, min_size=1, max_size=6),
    st.lists(_finite, min_size=1, max_size=6),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
    st.floats(1e-3, 1e3),
)
@example([0.0, -0.0, 6.0, -6.0, 12.0, -1e-300], [0.0], [0.0], 6.0)
@example([-3.0, -1.5, 0.0, 1.5], [-3.0, 1.5], [0.5, 0.0], 6.0)
def test_property_band_test_is_the_np_mod_rule(z, z_lo, thickness, period):
    # _in_band takes np.mod's remainder from fmod; the band it gives is np.mod's.
    z = np.array(z)[:, None, None]
    z_lo = np.array(z_lo)[None, :, None]
    z_up = z_lo + np.array(thickness)[None, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.mod(z - z_lo, period) <= (z_up - z_lo)
        np.testing.assert_array_equal(stokes._in_band(z, z_lo, z_up, period), expected)


CAPACITANCE_CFG = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
CAPACITANCE_GRID = ParameterGrid((1.5, 1.5), (4.0, 4.0), (0.1, 0.1))


@pytest.fixture(scope="module")
def both_blade_solvers():
    """Set-ups of one 48x36 channel: capacitance on the grid's envelope, strip LU on the column strip."""
    cfg = CAPACITANCE_CFG
    grid = (cfg.nx, cfg.nz, cfg.dx, cfg.dz)
    envelope = _solver._Capacitance(grid, _grid_envelope(CAPACITANCE_GRID, cfg)[0])
    columns = _solver._Substructure(grid, column_strip(cfg))
    return envelope, columns


@settings(max_examples=12, deadline=None)
@given(st.integers(4, 40), st.integers(4, 40), st.floats(0.5, 9.0), st.floats(0.5, 9.0), st.integers(0, 2**32 - 1))
@example(48, 35, 4.0, 6.0, 0)  # odd nz: no Nyquist frequency
@example(20, 5, 4.0, 2.0, 1)
@example(96, 72, 4.0, 6.0, 2)
def test_property_fourier_solve_is_the_lu_solve_of_a0(nx, nz, Lx, Lz, seed):
    grid = (nx, nz, Lx / nx, Lz / nz)
    A0 = _solver._matrix(*grid)
    r = np.random.default_rng(seed).standard_normal((A0.shape[0], 2))
    direct = spla.splu(A0.tocsc()).solve(r)
    fourier = _solver._Fourier(grid)
    got = fourier.solve(r)
    assert got.shape == r.shape and got.dtype == np.float64
    assert np.abs(got - direct).max() <= 1e-10 * np.abs(direct).max()
    np.testing.assert_array_equal(fourier.solve(r[:, 1]), got[:, 1])  # one column as a vector


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fourier_solve_of_a_stack_gives_each_row_its_own_bits(k):
    # k rows through one (k, 3 nx, nz) stack, as rows and as columns: each
    # row has the bytes of its own one-vector solve.
    grid = (48, 35, 4.0 / 48, 6.0 / 35)  # odd nz: no Nyquist frequency
    fourier = _solver._Fourier(grid)
    rows = np.random.default_rng(k).standard_normal((k, 3 * 48 * 35))
    one_by_one = np.array([vector_fourier_solve(fourier, r) for r in rows])
    assert fourier.solve(rows.T).T.tobytes() == one_by_one.tobytes()
    assert fourier.solve(np.asfortranarray(rows.T)).T.tobytes() == one_by_one.tobytes()
    assert fourier.solve(rows[0]).tobytes() == one_by_one[0].tobytes()


def test_g_is_a0_inverse_on_the_envelope_faces(both_blade_solvers):
    # G is gathered from one Fourier solve per face line; every 7th of its
    # columns against a column of one splu of A0.
    envelope, _ = both_blade_solvers
    lu = spla.splu(envelope.A.tocsc())
    every = np.arange(envelope.V.size)
    for b in range(0, envelope.V.size, 7):
        unit = np.zeros(envelope.A.shape[0])
        unit[envelope.V[b]] = 1.0
        column = lu.solve(unit)[envelope.V]
        gathered = envelope.g(every, np.array([b]))
        assert gathered.shape == (envelope.V.size, 1)
        assert np.abs(gathered[:, 0] - column).max() <= 1e-10 * np.abs(column).max()


def test_table_gather_is_the_dense_g_scatter(both_blade_solvers):
    # C = G[F, F] gathered from the table holds exactly the bits of the
    # dense G scattered whole, for random solid faces F and a rectangle.
    envelope, _ = both_blade_solvers
    G = dense_g(envelope)
    rng = np.random.default_rng(11)
    for m in (1, 2, 17, 150, envelope.V.size // 2, envelope.V.size - 1, envelope.V.size):
        F = np.sort(rng.choice(envelope.V.size, m, replace=False))
        np.testing.assert_array_equal(envelope.g(F, F), G[np.ix_(F, F)])
    rows, cols = rng.choice(envelope.V.size, 40), rng.choice(envelope.V.size, 9)
    np.testing.assert_array_equal(envelope.g(rows, cols), G[np.ix_(rows, cols)])


def _optimize_envelope():
    from mesopt.runconfig import load_config

    optimize = load_config("configs/stokes_optimize.json")
    channel = optimize.channel
    return (channel.nx, channel.nz, channel.dx, channel.dz), _grid_envelope(optimize.grid, channel)[0]


def test_table_is_the_unit_solves_bitwise(both_blade_solvers):
    # H is built from the units' Fourier transforms, a few lines at a time;
    # it holds the bits of whole-channel unit columns through _Fourier.solve
    # on the 48x36 and the 96x72 envelope.
    envelope, _ = both_blade_solvers
    for setup in (envelope, _solver._Capacitance(*_optimize_envelope())):
        nz = setup.H.shape[1] // 2
        assert setup.H.shape[0] > _solver._LINES_PER_BLOCK  # more than one block
        np.testing.assert_array_equal(setup.H[:, :nz], unit_table(setup))
        np.testing.assert_array_equal(setup.H[:, nz:], setup.H[:, :nz])


def test_capacitance_setup_holds_little_beyond_its_table():
    # At 96x72 the set-up keeps A0 and H (2.65 MB); while it builds H it
    # holds one block of face lines' Fourier solves, never a whole-channel
    # unit column per line with its transforms (36.6 MB at this size).
    grid, cells = _optimize_envelope()
    tracemalloc.start()
    try:
        _solver._Capacitance(grid, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def _rule_strips():
    from mesopt.runconfig import load_config

    def own(cfg, f, b):
        return stokes.solid_cells(stokes._lone_faces(build_airfoil(AirfoilSpec(f, b), 257), cfg), cfg)

    optimize, landscape = load_config("configs/stokes_optimize.json"), load_config("configs/stokes_landscape.json")
    small = ChannelConfig(**SMALL)
    return {
        "96x72 envelope": (optimize.channel, _grid_envelope(optimize.grid, optimize.channel)[0], 92, True),
        "192x96 own (2, 2)": (landscape.channel, own(landscape.channel, 2.0, 2.0), 40, True),
        "48x24 columns": (small, column_strip(small), 150, False),
        "48x36 columns": (CAPACITANCE_CFG, column_strip(CAPACITANCE_CFG), 225, False),
        "192x96 envelope": (landscape.channel, _grid_envelope(landscape.grid, landscape.channel)[0], 809, False),
        "192x96 own (4, 4)": (landscape.channel, own(landscape.channel, 4.0, 4.0), 655, False),
    }


def test_path_rule_is_a_size_rule_on_the_shipped_strips():
    # Capacitance iff |V|^2 <= 128 * 3 nx nz: T may hold up to 128 floats
    # per unknown of the channel.  No set-up is built.
    for name, (cfg, cells, per_unknown, capacitance) in _rule_strips().items():
        n_v = 2 * int(cells.sum())
        assert round(n_v**2 / (3 * cfg.nx * cfg.nz)) == per_unknown, name
        assert _solver._takes_capacitance(cells) is capacitance, name


def test_rule_picks_capacitance_on_the_envelope_and_strip_lu_on_the_column_strip():
    # The cached set-up is the one the size rule picks; the capacitance
    # set-up keeps no G, only its table over the strip's face lines, each
    # line's rows doubled along the row shift.
    cfg = CAPACITANCE_CFG
    grid = (cfg.nx, cfg.nz, cfg.dx, cfg.dz)
    envelope, _ = _grid_envelope(CAPACITANCE_GRID, cfg)
    for cells, kind in ((envelope, _solver._Capacitance), (column_strip(cfg), _solver._Substructure)):
        assert type(_solver._substructure(grid, cells.tobytes())) is kind
    sub = _solver._substructure(grid, envelope.tobytes())
    assert not hasattr(sub, "G")
    n_lines = np.unique(sub.V // cfg.nz).size
    assert sub.H.shape == (n_lines, 2 * cfg.nz, n_lines)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, CAPACITANCE_GRID.shape[0] - 1),
    st.integers(0, CAPACITANCE_GRID.shape[1] - 1),
    st.integers(0, 2**32 - 1),
)
@example(0, 0, 0)
@example(CAPACITANCE_GRID.shape[0] - 1, CAPACITANCE_GRID.shape[1] - 1, 1)
def test_property_capacitance_and_strip_lu_solves_agree(both_blade_solvers, i, j, seed):
    # The same (faces, r) through the capacitance solve on the envelope,
    # the strip LU on the column strip and one splu of the whole system.
    envelope, columns = both_blade_solvers
    cfg = CAPACITANCE_CFG
    faces = stokes._lone_faces(build_airfoil(AirfoilSpec(*CAPACITANCE_GRID.theta((i, j))), 257), cfg)
    A = penalized_system(faces, cfg)
    r = np.random.default_rng(seed).standard_normal(A.shape[0])
    direct = spla.splu(A).solve(r)
    scale = np.abs(direct).max()
    K = cfg.penalization
    capacitance, strip_lu = envelope.solve([faces], K, r)[0], columns.solve([faces], K, r)[0]
    # The residual weighs the solid faces by K: recovering x_F by
    # subtraction instead of as z / K leaves about 1e-6 here.
    for x in (capacitance, strip_lu, direct):
        assert np.abs(r - A @ x).max() <= 1e-7 * np.abs(r).max()
    assert np.abs(capacitance - strip_lu).max() <= 1e-8 * scale
    assert np.abs(capacitance - direct).max() <= 1e-8 * scale
    assert np.abs(strip_lu - direct).max() <= 1e-8 * scale


def test_capacitance_solve_without_y_makes_its_own_first_solve(both_blade_solvers):
    # Refinement passes y = None, so the solve makes its own A0^-1 r; with
    # the caller's y it must give the same bits.
    envelope, _ = both_blade_solvers
    cfg = CAPACITANCE_CFG
    faces = stokes._lone_faces(build_airfoil(AirfoilSpec(2.0, 2.0), 257), cfg)
    r = np.random.default_rng(5).standard_normal(envelope.A.shape[0])
    K = cfg.penalization
    refined = envelope.solve([faces], K, r)[0]
    np.testing.assert_array_equal(refined, envelope.solve([faces], K, r, envelope.fourier.solve(r))[0])
    direct = direct_solve(faces, cfg, r)
    assert np.abs(refined - direct).max() <= 1e-8 * np.abs(direct).max()


def test_capacitance_solve_of_the_empty_channel_is_the_strip_solve(both_blade_solvers):
    envelope, columns = both_blade_solvers
    r = np.random.default_rng(3).standard_normal(envelope.A.shape[0])
    direct = spla.splu(envelope.A.tocsc()).solve(r)
    for sub in (envelope, columns):
        x = sub.solve([np.empty(0, dtype=int)], CAPACITANCE_CFG.penalization, r)[0]
        assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()


def test_thick_blade_on_its_own_cells_builds_no_inverse():
    # The blade fills its own cells, a strip no other blade uses, so a
    # thick one factors C there and T is never built.
    cfg = CAPACITANCE_CFG
    shape = build_airfoil(AirfoilSpec(4.0, 4.0), 257)
    field = solve_stokes(shape, cfg)
    faces = stokes._lone_faces(shape, cfg)
    misses = _solver._substructure.cache_info().misses
    sub = _solver._substructure((cfg.nx, cfg.nz, cfg.dx, cfg.dz), _node_cells(shape, cfg).tobytes())
    assert _solver._substructure.cache_info().misses == misses  # the set-up the solve used
    assert isinstance(sub, _solver._Capacitance)
    assert _solver._takes_complement(faces.size, sub.V.size)
    assert sub.T is None
    direct = direct_solve(faces, cfg, stokes._rhs(cfg))
    assert field.converged
    assert np.abs(_stacked(field) - direct).max() <= 1e-8 * np.abs(direct).max()


def test_inverse_is_rebuilt_for_each_penalization(both_blade_solvers):
    # One thick blade on the shared envelope at K = 1e6, 1e5 and 1e6 again:
    # T is kept for one K, each solve matches splu of its own system.
    envelope, _ = both_blade_solvers
    faces = stokes._lone_faces(build_airfoil(AirfoilSpec(4.0, 4.0), 257), CAPACITANCE_CFG)
    assert _solver._takes_complement(faces.size, envelope.V.size)
    r = np.random.default_rng(7).standard_normal(envelope.A.shape[0])
    for K in (1e6, 1e5, 1e6):
        x = envelope.solve([faces], K, r)[0]
        assert envelope.T_penalization == K
        assert envelope.T.shape == (envelope.V.size,) * 2
        direct = direct_solve(faces, dataclasses.replace(CAPACITANCE_CFG, penalization=K), r)
        assert np.abs(x - direct).max() <= 1e-8 * np.abs(direct).max()


#: Blades of CAPACITANCE_GRID for a group: thin ones and the three thickest,
#: which take the complement (m = 277-280 of |V| = 354).
GROUP_BLADES = ((2.0, 2.0), (4.0, 4.0), (1.5, 1.5), (3.5, 4.0), (2.5, 3.0), (1.5, 4.0))


def _counting_passes(monkeypatch, sub) -> list[int]:
    """The blade count of each set-up pass of ``sub``'s type from here on.

    A set-up pass is a solve given y; refinement passes make their own.
    """
    passes, solve = [], type(sub).solve

    def counting(self, blades, K, r, y=None):
        if y is not None:
            passes.append(len(blades))
        return solve(self, blades, K, r, y)

    monkeypatch.setattr(type(sub), "solve", counting)
    return passes


def _same_field(field, lone) -> bool:
    """Whether two fields have the same bytes, residual, convergence and refinements."""
    return (field.converged, field.residual, field.refinements) == (
        lone.converged,
        lone.residual,
        lone.refinements,
    ) and all(getattr(field, name).tobytes() == getattr(lone, name).tobytes() for name in ("u1", "u2", "p"))


@pytest.mark.parametrize("solver_tol", [1e-8, 1e-13])
def test_group_gives_each_blade_the_bits_of_its_lone_solve(monkeypatch, solver_tol):
    # Six grid blades of the 48x36 envelope solved as one group: each call
    # returns the field bytes, residual, convergence and refinements of
    # that blade solved alone.  At solver_tol 1e-13 the thick blades miss
    # the tolerance (residuals near 1e-11) and are refined; the thin ones
    # are not.  The first call solves the whole group in one set-up pass.
    cfg = dataclasses.replace(CAPACITANCE_CFG, solver_tol=solver_tol)
    envelope, table = _grid_envelope(CAPACITANCE_GRID, cfg)
    blades = [table[AirfoilSpec(*fb)] for fb in GROUP_BLADES]
    sub = _solver._substructure((cfg.nx, cfg.nz, cfg.dx, cfg.dz), envelope.tobytes())
    assert isinstance(sub, _solver._Capacitance)
    assert sum(_solver._takes_complement(faces.size, sub.V.size) for faces in blades) == 3
    alone = [solve_stokes(None, cfg, envelope, faces) for faces in blades]

    passes = _counting_passes(monkeypatch, sub)
    together = {faces.tobytes(): faces for faces in blades}
    grouped = [solve_stokes(None, cfg, envelope, faces, together) for faces in blades]
    assert together == {}  # every field handed out
    assert passes == [len(blades)]
    assert all(_same_field(field, lone) for field, lone in zip(grouped, alone))
    refined = [field.refinements > 0 for field in grouped]
    assert refined == ([False, True, False, True, False, True] if solver_tol < 1e-8 else [False] * 6)
    assert all(field.converged for field in grouped)


def _group_blades():
    """The 48x36 envelope's set-up, two of its blades and the (4, 4) blade with a strip it leaves.

    The narrow strip is the envelope without the (4, 4) blade's cells that
    neither of the two holds.
    """
    cfg = CAPACITANCE_CFG
    envelope, table = _grid_envelope(CAPACITANCE_GRID, cfg)
    member, other = table[AirfoilSpec(2.0, 2.0)], table[AirfoilSpec(3.0, 2.0)]
    shape = build_airfoil(AirfoilSpec(4.0, 4.0), 257)
    outside = stokes._lone_faces(shape, cfg)
    kept = stokes.solid_cells(member, cfg) | stokes.solid_cells(other, cfg)
    narrow = envelope & ~(stokes.solid_cells(outside, cfg) & ~kept)
    sub = _solver._substructure((cfg.nx, cfg.nz, cfg.dx, cfg.dz), envelope.tobytes())
    return sub, envelope, member, other, shape, outside, narrow


def test_a_blade_not_in_the_group_is_solved_alone_and_leaves_the_group_as_it_is(monkeypatch):
    cfg = CAPACITANCE_CFG
    sub, envelope, member, other, *_ = _group_blades()
    alone = solve_stokes(None, cfg, envelope, other)
    passes = _counting_passes(monkeypatch, sub)
    together = {member.tobytes(): member}
    assert _same_field(solve_stokes(None, cfg, envelope, other, together), alone)
    assert passes == [1]
    assert list(together) == [member.tobytes()] and together[member.tobytes()] is member


def test_each_member_is_handed_out_once_and_then_solved_alone(monkeypatch):
    cfg = CAPACITANCE_CFG
    sub, envelope, member, other, *_ = _group_blades()
    passes = _counting_passes(monkeypatch, sub)
    together = {member.tobytes(): member, other.tobytes(): other}
    solve_stokes(None, cfg, envelope, other, together)
    assert passes == [2]
    assert list(together) == [member.tobytes()]  # its field, waiting for its call
    assert isinstance(together[member.tobytes()], stokes.FlowField)
    handed = solve_stokes(None, cfg, envelope, member, together)
    assert together == {} and passes == [2]
    again = solve_stokes(None, cfg, envelope, member, together)
    assert together == {} and passes == [2, 1]
    assert _same_field(again, handed)


def test_a_member_outside_the_envelope_is_left_out_of_the_pass_and_raises_at_its_own_call(monkeypatch):
    cfg = CAPACITANCE_CFG
    _, _, member, _, shape, outside, narrow = _group_blades()
    together = {outside.tobytes(): outside, member.tobytes(): member}
    with pytest.raises(ValueError, match="outside the strip"):
        solve_stokes(shape, cfg, narrow, outside, together)
    sub = _solver._substructure((cfg.nx, cfg.nz, cfg.dx, cfg.dz), narrow.tobytes())
    passes = _counting_passes(monkeypatch, sub)
    solve_stokes(None, cfg, narrow, member, together)
    assert passes == [1]
    assert list(together) == [outside.tobytes()] and together[outside.tobytes()] is outside
    with pytest.raises(ValueError, match="outside the strip"):
        solve_stokes(None, cfg, narrow, outside, together)
    assert passes == [1]


def test_faces_outside_the_envelope_raise_value_error_without_a_shape():
    # The message names a blade given without its shape by its faces.
    cfg = CAPACITANCE_CFG
    *_, outside, narrow = _group_blades()
    with pytest.raises(ValueError, match="blade given by its faces has [0-9]+ solid cells outside the strip"):
        solve_stokes(None, cfg, narrow, outside)
