import dataclasses

import numpy as np
import pytest

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

    def nan_solve(shape, channel, envelope=None):
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
    from mesopt import stokes
    from mesopt.grid import ParameterGrid
    from mesopt.stokes import ChannelConfig, FlowError

    grid = ParameterGrid((2.0, 2.0), (2.2, 2.2), (0.1, 0.1))
    channel = ChannelConfig(Lx=4.0, Lz=6.0, nx=48, nz=36)
    strict = StokesObjective(dataclasses.replace(channel, solver_tol=1e-300, max_iters=1), grid=grid)
    with pytest.raises(FlowError, match="solver_tol"):
        strict((2.1, 2.1))
    misses = stokes._substructure.cache_info().misses
    sub = stokes._substructure((48, 36, channel.dx, channel.dz), _grid_envelope(grid, channel).tobytes())
    assert stokes._substructure.cache_info().misses == misses  # the set-up the solve used
    assert isinstance(sub, stokes._Capacitance)

    monkeypatch.setattr(stokes.la, "lu_solve", lambda lu, b, **kw: np.full_like(b, np.nan))
    with pytest.raises(FlowError, match="residual nan"):
        StokesObjective(channel, grid=grid)((2.1, 2.1))
