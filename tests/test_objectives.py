import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from mesopt.grid import ParameterGrid
from mesopt.stokes import EvaluationProfile
from mesopt.objectives import (
    BACKENDS,
    Fictitious1DObjective,
    StokesObjective,
    SyntheticValleyObjective,
    _grid_envelope,
    fictitious_1d,
    reward_R1,
    reward_R2,
    synthetic_valley_2d,
)


def profile_of(u1, u2):
    u1 = np.asarray(u1, dtype=float)
    return EvaluationProfile(z_samples=np.arange(len(u1), dtype=float), u1=u1, u2=np.asarray(u2, dtype=float))


def test_r1_uniform_inclined():
    p = profile_of([1.0] * 4, [0.75] * 4)
    assert reward_R1(p) == pytest.approx(0.36, abs=1e-15)


def test_r1_horizontal_flow_is_zero():
    assert reward_R1(profile_of([1.0, 2.0], [0.0, 0.0])) == 0.0


def test_r1_two_sample_hand_sum():
    # {(1,1), (1,0)} -> (0.5 + 0)/2
    assert reward_R1(profile_of([1.0, 1.0], [1.0, 0.0])) == pytest.approx(0.25, abs=1e-15)


def test_r1_rejects_stagnant_sample():
    with pytest.raises(ValueError):
        reward_R1(profile_of([0.0, 1.0], [0.0, 0.0]))


def test_r1_bounded_for_random_profiles():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = profile_of(rng.normal(size=16) + 0.1, rng.normal(size=16))
        assert 0.0 <= reward_R1(p) <= 1.0
        assert reward_R2(p) >= 0.0


def test_r2_extremes():
    assert reward_R2(profile_of([1.0, 1.0], [0.0, 0.0])) == 0.0
    # {(1,0), (0,2)} -> 2 - 1 = 1
    assert reward_R2(profile_of([1.0, 0.0], [0.0, 2.0])) == pytest.approx(1.0, abs=1e-15)
    assert reward_R2(profile_of([3.0, 3.0], [4.0, 4.0])) == 0.0


def test_r2_rejects_empty_profile():
    with pytest.raises(ValueError):
        reward_R2(profile_of([], []))


def test_fictitious_polynomial_values():
    assert fictitious_1d(-2.0) == 0.0
    assert fictitious_1d(-1.0) == 0.0
    assert fictitious_1d(1.0) == 0.0
    assert fictitious_1d(0.0) == 4.0


def test_synthetic_valley_values_and_gradients():
    assert synthetic_valley_2d(2.0, 2.5) == 0.0
    assert synthetic_valley_2d(3.0, 2.5) == pytest.approx(5.0)
    # Analytic gradient ratio 25:1 between the steep and shallow axes.
    eps = 1e-7
    gf = (synthetic_valley_2d(2.5 + eps, 2.5) - synthetic_valley_2d(2.5 - eps, 2.5)) / (2 * eps)
    gb = (synthetic_valley_2d(2.0, 3.0 + eps) - synthetic_valley_2d(2.0, 3.0 - eps)) / (2 * eps)
    assert gf / gb == pytest.approx(25.0, rel=1e-5)


def test_backends_count_calls():
    valley = SyntheticValleyObjective()
    assert valley.calls == 0
    valley((2.0, 2.5))
    valley.components((2.1, 2.5))
    assert valley.calls == 2

    poly = Fictitious1DObjective()
    assert poly((0.0,)) == 4.0
    assert poly.calls == 1


def test_stokes_objective_deterministic_and_counted():
    from mesopt.stokes import ChannelConfig

    obj = StokesObjective(ChannelConfig(nx=48, nz=24))
    a = obj((2.0, 2.0))
    b = obj((2.0, 2.0))
    assert a == b  # bit-for-bit
    assert obj.calls == 2
    r1, r2, r = obj.components((2.0, 2.0))
    assert r == a
    assert 0.0 <= r1 <= 1.0 and r2 >= 0.0


def test_backend_registry():
    # One map from config name to objective class; each class declares d,
    # and RunConfig's checks and cli.build_backend read this map.
    from mesopt.cli import build_backend
    from mesopt.runconfig import ConfigError, parse_config

    assert BACKENDS == {
        "stokes": StokesObjective,
        "synthetic-valley": SyntheticValleyObjective,
        "fictitious-1d": Fictitious1DObjective,
    }
    assert {name: cls.d for name, cls in BACKENDS.items()} == {
        "stokes": 2,
        "synthetic-valley": 2,
        "fictitious-1d": 1,
    }
    for name, cls in BACKENDS.items():
        grid = {"mins": [0.0] * cls.d, "maxs": [1.0] * cls.d, "steps": [0.5] * cls.d}
        assert type(build_backend(parse_config({"backend": name, "grid": grid}))) is cls
    with pytest.raises(ConfigError, match="backend"):
        parse_config({"backend": "nope", "grid": {"mins": [0.0], "maxs": [1.0], "steps": [0.5]}})


def test_unconverged_or_non_finite_solve_raises(monkeypatch):
    from mesopt import objectives
    from mesopt.stokes import ChannelConfig, FlowError, FlowField

    # No refinement can meet this tolerance, so the solve reports converged=False.
    strict = StokesObjective(ChannelConfig(nx=48, nz=24, solver_tol=1e-300, max_iters=1))
    with pytest.raises(FlowError, match="solver_tol"):
        strict((2.0, 2.0))

    def nan_solve(shape, channel, envelope=None, faces=None, together=None):
        u1 = np.ones((channel.nx + 1, channel.nz))
        u1[-1, 0] = np.nan
        rest = np.ones((channel.nx, channel.nz))
        return FlowField(u1=u1, u2=rest, p=rest, converged=True, residual=0.0, refinements=0)

    monkeypatch.setattr(objectives, "solve_stokes", nan_solve)
    with pytest.raises(FlowError, match="non-finite"):
        StokesObjective(ChannelConfig(nx=48, nz=24))((2.0, 2.0))


def test_capacitance_solve_that_fails_raises(monkeypatch):
    # The grid envelope at 48x36 takes the capacitance path; a solve that
    # misses solver_tol or whose field turns non-finite is a FlowError.
    from mesopt import _solver
    from mesopt.grid import ParameterGrid
    from mesopt.stokes import ChannelConfig, FlowError

    grid = ParameterGrid((2.0, 2.0), (2.2, 2.2), (0.1, 0.1))
    channel = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    strict = StokesObjective(dataclasses.replace(channel, solver_tol=1e-300, max_iters=1), grid=grid)
    with pytest.raises(FlowError, match="solver_tol"):
        strict((2.1, 2.1))
    misses = _solver._substructure.cache_info().misses
    sub = _solver._substructure((48, 36, channel.dx, channel.dz), _grid_envelope(grid, channel)[0].tobytes())
    assert _solver._substructure.cache_info().misses == misses  # the set-up the solve used
    assert isinstance(sub, _solver._Capacitance)

    monkeypatch.setattr(_solver.la, "lu_solve", lambda lu, b, **kw: np.full_like(b, np.nan))
    with pytest.raises(FlowError, match="residual nan"):
        StokesObjective(channel, grid=grid)((2.1, 2.1))


def test_backend_lets_its_group_go_after_the_block_also_when_a_solve_fails():
    # The backend holds a group only inside ``group``: after a block that
    # ends as usual, and after one that a member's FlowError ends while
    # the other member's field still waits in the group.
    from mesopt.stokes import ChannelConfig, FlowError

    grid = ParameterGrid((2.0, 2.0), (2.2, 2.2), (0.1, 0.1))
    channel = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    thetas = [(2.0, 2.0), (2.1, 2.1)]
    backend = StokesObjective(channel, grid=grid)
    assert backend._together is None
    with backend.group(thetas):
        assert len(backend._together) == 2
        backend(thetas[0])
        assert len(backend._together) == 1
    assert backend._together is None

    strict = StokesObjective(dataclasses.replace(channel, solver_tol=1e-300, max_iters=1), grid=grid)
    with pytest.raises(FlowError, match="solver_tol"), strict.group(thetas):
        try:
            strict(thetas[0])
        finally:
            assert len(strict._together) == 1
    assert strict._together is None


def test_backends_of_equal_configs_share_one_setup():
    # Two backends built from equal configs, one given ints and one floats,
    # pay for one envelope pass and one solver set-up between them: the
    # caches key on the grid and channel by value, and a grid's node counts
    # (``shape``, worked out at construction) are no field of that value.
    from mesopt import _solver
    from mesopt.stokes import ChannelConfig

    as_ints = StokesObjective(ChannelConfig(Lx=4, Lz=6, nx=48, nz=36), grid=ParameterGrid((2, 2), (3, 3), (1, 1)))
    as_floats = StokesObjective(
        ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36), grid=ParameterGrid((2.0, 2.0), (3.0, 3.0), (1.0, 1.0))
    )
    assert [f.name for f in dataclasses.fields(ParameterGrid)] == ["mins", "maxs", "steps"]
    assert as_ints.grid == as_floats.grid and hash(as_ints.grid) == hash(as_floats.grid)
    assert repr(as_ints.grid) == repr(as_floats.grid)
    _grid_envelope.cache_clear()
    _solver._substructure.cache_clear()
    rewards = [as_ints((2.0, 3.0)), as_floats((2.0, 3.0)), as_floats((3, 2))]
    assert _grid_envelope.cache_info().misses == 1
    assert _solver._substructure.cache_info().misses == 1
    assert rewards[0] == rewards[1]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["stokes_optimize", "stokes_landscape"])
def test_table_holds_the_rule_faces_of_every_grid_blade(name):
    # Every node of the shipped channel grids is a valid blade that fits, so
    # each is in the table, with the faces the lone-blade rule gives, bit
    # for bit, though the pass evaluated it in a block of blades.  The
    # envelope is the union of their cells, and the table is read-only.
    from mesopt import stokes
    from mesopt.geometry import AirfoilSpec, build_airfoil
    from mesopt.runconfig import load_config

    cfg = load_config(CONFIGS / f"{name}.json")
    channel = cfg.channel
    cells, table = _grid_envelope(cfg.grid, channel)
    n = channel.nx * channel.nz
    union = np.zeros(n, dtype=bool)
    for p in cfg.grid.points():
        shape = build_airfoil(AirfoilSpec(*cfg.grid.theta(p), e=channel.airfoil_e), channel.n_shape_samples)
        faces = table[shape.spec]
        assert faces.dtype == np.uint16 and not faces.flags.writeable
        np.testing.assert_array_equal(faces, np.flatnonzero(stokes._solid_faces([shape], channel)[0]))
        union[faces % n] = True
    assert len(table) == math.prod(cfg.grid.shape)
    np.testing.assert_array_equal(cells.ravel(), union)
    with pytest.raises(TypeError):  # the cache hands one table to every caller
        table[shape.spec] = faces
    if name == "stokes_optimize":
        assert sum(faces.nbytes for faces in table.values()) <= 0.8e6


@pytest.mark.parametrize(
    "channel, grid, tabled",
    [
        # f = 0.5 is no valid spec; at Lz = 2 the blade b = 4 (2.9 chords
        # thick) leaves no open passage.
        (
            dict(Lx=4.0, Lz=2.0, nx=16, nz=8),
            ParameterGrid((0.5, 1.5), (2.0, 4.0), (1.5, 2.5)),
            {(2.0, 1.5)},
        ),
        # On 4 x 8 cells of 2 x 1.5 only the blade b = 4 covers a face.
        (
            dict(Lx=8.0, Lz=12.0, nx=4, nz=8, leading_edge_x=1.2),
            ParameterGrid((0.5, 3.0), (2.0, 4.0), (1.5, 1.0)),
            {(2.0, 4.0)},
        ),
    ],
    ids=["invalid-and-unfit", "invisible"],
)
def test_nodes_left_out_of_the_table_raise_as_without_a_grid(channel, grid, tabled):
    # A node whose spec is invalid, whose blade does not fit, or whose mask
    # selects no face is not in the table: its solve runs the rule and
    # raises what a solve without the grid raises.
    from mesopt.geometry import GeometryError
    from mesopt.stokes import ChannelConfig, FlowError

    channel = ChannelConfig(**channel)
    _, table = _grid_envelope(grid, channel)
    assert {(spec.f, spec.b) for spec in table} == tabled
    for theta in map(grid.theta, grid.points()):
        if theta in tabled:
            continue
        errors = []
        for backend in (StokesObjective(channel, grid=grid), StokesObjective(channel)):
            with pytest.raises((FlowError, GeometryError)) as caught:
                backend(theta)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert any(word in errors[0][1] for word in ("camber root", "open passage", "selects no face"))


def test_blade_off_the_grid_that_leaves_the_envelope_raises():
    from mesopt.stokes import ChannelConfig

    grid = ParameterGrid((2.0, 2.0), (2.1, 2.1), (0.1, 0.1))
    backend = StokesObjective(ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36), grid=grid)
    with pytest.raises(ValueError, match="outside the strip"):
        backend((4.0, 4.0))


def test_table_faces_that_leave_the_envelope_raise():
    # Every solve checks that its blade's cells lie in the strip, a blade
    # whose faces come from the table included: a table entry tampered to
    # reach a cell outside the envelope raises instead of solving.
    from mesopt.geometry import AirfoilSpec, build_airfoil
    from mesopt.stokes import ChannelConfig, solve_stokes

    channel = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    grid = ParameterGrid((2.0, 2.0), (2.1, 2.1), (0.1, 0.1))
    envelope, table = _grid_envelope(grid, channel)
    shape = build_airfoil(AirfoilSpec(2.0, 2.0), 257)
    faces = table[shape.spec]
    assert solve_stokes(shape, channel, envelope=envelope, faces=faces).converged
    outside = np.flatnonzero(~envelope.ravel())[0]  # the u face of a cell outside
    tampered = np.sort(np.append(faces, outside))
    with pytest.raises(ValueError, match="has 1 solid cells outside the strip"):
        solve_stokes(shape, channel, envelope=envelope, faces=tampered)


@pytest.mark.parametrize("theta", [(1.5, 1.5), (2.7, 2.7), (4.0, 4.0)], ids=["thin", "middle", "thick"])
def test_table_solve_gives_the_rule_solve_bits(theta):
    # The same blade on the grid envelope and on its own cells, with its
    # faces from the table and by the rule: the fields are bitwise equal.
    # At 48x36 the thick blade (4, 4) takes the complement on the envelope.
    from mesopt import _solver
    from mesopt.geometry import AirfoilSpec, build_airfoil
    from mesopt.stokes import ChannelConfig, solve_stokes

    channel = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    grid = ParameterGrid((1.5, 1.5), (4.0, 4.0), (0.1, 0.1))
    envelope, table = _grid_envelope(grid, channel)
    shape = build_airfoil(AirfoilSpec(*theta), 257)
    faces = table[shape.spec]
    own = np.zeros(channel.nx * channel.nz, dtype=bool)
    own[faces % own.size] = True
    own = own.reshape(channel.nx, channel.nz)
    if theta == (4.0, 4.0):
        sub = _solver._substructure((channel.nx, channel.nz, channel.dx, channel.dz), envelope.tobytes())
        assert _solver._takes_complement(faces.size, sub.V.size)
    for strip in (envelope, own):
        by_table = solve_stokes(shape, channel, envelope=strip, faces=faces)
        by_rule = solve_stokes(shape, channel, envelope=strip)
        for a, b in zip(
            (by_table.u1, by_table.u2, by_table.p, by_table.residual, by_table.refinements),
            (by_rule.u1, by_rule.u2, by_rule.p, by_rule.residual, by_rule.refinements),
        ):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(solve_stokes(shape, channel).u1, by_rule.u1)  # own cells by default


def test_faces_need_the_envelope_of_their_pass():
    from mesopt.geometry import AirfoilSpec, build_airfoil
    from mesopt.stokes import ChannelConfig, solve_stokes

    with pytest.raises(ValueError, match="envelope"):
        solve_stokes(build_airfoil(AirfoilSpec(2.0, 2.0), 257), ChannelConfig(nx=48, nz=24), faces=np.arange(3))
