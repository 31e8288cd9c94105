import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from mesopt import stokes
from mesopt.geometry import AirfoilShape, AirfoilSpec, build_airfoil
from mesopt.stokes import (
    ChannelConfig,
    FlowError,
    sample_line,
    solid_mask,
    solve_stokes,
)

SMALL = dict(nx=48, nz=24)


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
        ChannelConfig(penalization=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(solver_tol=-1.0)
    with pytest.raises(ValueError):
        ChannelConfig(reward_variant="bogus")


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
    A0, rhs = stokes._assemble(cfg)
    direct = spla.splu((A0 + sp.diags(stokes._brinkman_diagonal(shape, cfg))).tocsc()).solve(rhs)
    field = solve_stokes(shape, cfg)
    assert field.converged
    assert np.abs(_stacked(field) - direct).max() <= 1e-8 * np.abs(direct).max()


def test_cold_and_warm_solves_are_bitwise_equal():
    cfg = ChannelConfig(**SMALL)
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257)
    stokes._substructure.cache_clear()
    cold = solve_stokes(shape, cfg)
    warm = solve_stokes(shape, cfg)
    solve_stokes(shape, ChannelConfig(nx=40, nz=24))  # evicts cfg
    rebuilt = solve_stokes(shape, cfg)
    for again in (warm, rebuilt):
        np.testing.assert_array_equal(_stacked(cold), _stacked(again))
        assert again.residual == cold.residual


def test_blade_at_inflow_face_solves():
    # leading_edge_x = 0 puts the strip against the inflow: no exterior
    # lies upstream of it.
    cfg = ChannelConfig(leading_edge_x=0.0, **SMALL)
    field = solve_stokes(build_airfoil(AirfoilSpec(f=2.0, b=2.0), 257), cfg)
    assert stokes._substructure(cfg).strip[0] == 0
    assert field.converged
    assert np.abs(field.divergence(cfg)).max() <= 1e-6 * np.hypot(*cfg.inflow)
