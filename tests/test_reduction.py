import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesopt.grid import ParameterGrid, make_neighborhood
from mesopt.objectives import CountingObjective, SyntheticValleyObjective, synthetic_valley_2d
from mesopt.reduction import (
    OptimizerConfig,
    OptimizationTrace,
    resize_neighborhood,
    run_optimization,
    stability_check,
    surrogate_sample_points,
    terminate_check,
)
from mesopt.stokes import FlowError
from mesopt.surrogate import fit_surrogate


@pytest.fixture
def valley_grid():
    return ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))


def fit_valley_at(grid, center_idx, radii=(3, 3)):
    n = make_neighborhood(grid, center_idx, radii)
    center_theta = grid.theta(n.center)
    samples = [
        (grid.theta(p), synthetic_valley_2d(*grid.theta(p)))
        for p in surrogate_sample_points(n)
    ]
    return fit_surrogate(center_theta, synthetic_valley_2d(*center_theta), samples), n


def test_sample_points_are_corners_excluding_center(valley_grid):
    n = make_neighborhood(valley_grid, (10, 10), (3, 3))
    pts = surrogate_sample_points(n)
    assert set(pts) == {(7, 7), (7, 13), (13, 7), (13, 13)}
    # Clipped at the grid corner the box corner coincides with the center.
    n0 = make_neighborhood(valley_grid, (0, 0), (1, 1))
    assert set(surrogate_sample_points(n0)) == {(0, 1), (1, 0), (1, 1)}


def test_sample_points_width_one_rectangle(valley_grid):
    n = make_neighborhood(valley_grid, (10, 10), (3, 0))
    pts = surrogate_sample_points(n)
    # Two endpoints plus one interior midpoint off the center.
    assert (7, 10) in pts and (13, 10) in pts
    assert len(pts) == 3
    mids = set(pts) - {(7, 10), (13, 10)}
    assert mids and all(p[1] == 10 and p[0] not in (7, 10, 13) for p in mids)


def test_stability_flat_axis_is_stable(valley_grid):
    # Constant along f, varying along b: f stable for any epsilon.
    center = (10, 10)
    theta = valley_grid.theta(center)
    surr = fit_surrogate(
        theta,
        1.0,
        [((theta[0], theta[1] + 0.3), 0.5), ((theta[0], theta[1] - 0.3), 0.4),
         ((theta[0] + 0.3, theta[1]), 1.0), ((theta[0] - 0.3, theta[1]), 1.0)],
    )
    n = make_neighborhood(valley_grid, center, (3, 3))
    flags = stability_check(surr, n, epsilon=1e-6)
    assert flags == (True, False)


def test_stability_isotropic_keeps_both_active(valley_grid):
    # Equal gradients both ways: axis descent is a large fraction of the
    # box descent, far above epsilon = 0.1.
    center = (10, 10)
    fx, fb = valley_grid.theta(center)
    quad = lambda x, y: (x - fx + 0.35) ** 2 + (y - fb + 0.35) ** 2
    samples = [
        ((fx + dx, fb + dy), quad(fx + dx, fb + dy))
        for dx, dy in [(0.3, 0.3), (0.3, -0.3), (-0.3, 0.3), (-0.3, -0.3), (0.1, 0.2)]
    ]
    surr = fit_surrogate((fx, fb), quad(fx, fb), samples)
    n = make_neighborhood(valley_grid, center, (3, 3))
    assert stability_check(surr, n, epsilon=0.1) == (False, False)


def test_stability_anisotropic_freezes_shallow_dim(valley_grid):
    # 25x gradient ratio: the shallow dimension is stable at epsilon 0.1.
    surr, n = fit_valley_at(valley_grid, valley_grid.index_of((3.0, 3.0)))
    flags = stability_check(surr, n, epsilon=0.1)
    assert flags == (False, True)


def test_stability_never_freezes_everything(valley_grid):
    center = (10, 10)
    theta = valley_grid.theta(center)
    # Pure cross-term surrogate: both axis lines are flat, box corners not.
    surr = fit_surrogate(
        theta,
        0.0,
        [((theta[0] + dx, theta[1] + dy), 10.0 * dx * dy)
         for dx, dy in [(0.3, 0.3), (0.3, -0.3), (-0.3, 0.3), (-0.3, -0.3)]],
    )
    n = make_neighborhood(valley_grid, center, (3, 3))
    flags = stability_check(surr, n, epsilon=0.5)
    assert not all(flags)


def test_resize_member_count_matching():
    # Freeze b on a 7x7 box: the 49 members fit in a 49x1 line, radius 24.
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(6.0, 6.0), steps=(0.1, 0.1))
    n = make_neighborhood(grid, (30, 30), (3, 3))
    assert resize_neighborhood(n, (False, True)) == (24, 0)
    # Nothing stable: unchanged square (member-count match reproduces it).
    assert resize_neighborhood(n, (False, False)) == (3, 3)
    # 3x3 box, nothing stable: unchanged.
    small = make_neighborhood(grid, (30, 30), (1, 1))
    assert resize_neighborhood(small, (False, False)) == (1, 1)


def test_resize_respects_grid_extent():
    # Grid with 11 points in b: freezing f elongates b but the cap keeps the
    # radius at the largest useful distance to a bound.
    grid = ParameterGrid(mins=(1.5, 2.0), maxs=(4.0, 3.0), steps=(0.1, 0.1))
    n = make_neighborhood(grid, (12, 5), (3, 3))
    assert resize_neighborhood(n, (True, False)) == (0, 5)
    with pytest.raises(ValueError):
        resize_neighborhood(n, (True, True))


def test_terminate_check_rules(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(
        valley_grid, valley_grid.index_of((2.0, 2.5)), backend, OptimizerConfig()
    )
    assert trace.terminated_reason == "converged"
    assert terminate_check(trace)
    with pytest.raises(ValueError):
        terminate_check(OptimizationTrace())


def test_start_at_argmin_terminates_in_one_cycle(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(
        valley_grid, valley_grid.index_of((2.0, 2.5)), backend, OptimizerConfig()
    )
    assert trace.path_length == 1
    assert trace.cycles[0].argmin == trace.cycles[0].center


def test_remote_start_converges_to_argmin(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(
        valley_grid, valley_grid.index_of((3.9, 2.6)), backend, OptimizerConfig()
    )
    assert trace.terminated_reason == "converged"
    final = valley_grid.theta(trace.centers()[-1])
    assert synthetic_valley_2d(*final) < 0.01


def test_true_objective_non_increasing_along_path(valley_grid):
    for start in [(2.2, 1.7), (3.0, 2.6), (3.9, 1.7), (3.9, 2.6)]:
        backend = SyntheticValleyObjective()
        trace = run_optimization(
            valley_grid, valley_grid.index_of(start), backend, OptimizerConfig()
        )
        values = [c.center_value for c in trace.cycles] + [
            trace.cycles[-1].true_objective_at_argmin
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_budget_accounting_matches_backend_counter(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(
        valley_grid, valley_grid.index_of((3.0, 1.7)), backend, OptimizerConfig()
    )
    assert trace.total_simulations == backend.calls
    assert trace.total_simulations == sum(c.simulations_this_cycle for c in trace.cycles)
    # Cycle 0 pays the center plus the corner samples; re-visited points are
    # never re-paid.
    k0 = len(trace.cycles[0].sample_points)
    assert trace.cycles[0].simulations_this_cycle <= k0 + 2


def test_frozen_dimension_immutability(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(
        valley_grid, valley_grid.index_of((3.9, 2.6)), backend, OptimizerConfig()
    )
    saw_frozen = False
    for c in trace.cycles:
        for dim in c.frozen_dims:
            saw_frozen = True
            assert c.radii[dim] == 0
            assert c.argmin[dim] == c.center[dim]
            for p in c.sample_points:
                assert p[dim] == c.center[dim]
    assert saw_frozen


def test_run_determinism(valley_grid):
    def run():
        backend = SyntheticValleyObjective()
        return run_optimization(
            valley_grid, valley_grid.index_of((3.9, 1.7)), backend, OptimizerConfig()
        )

    a, b = run(), run()
    assert [c.center for c in a.cycles] == [c.center for c in b.cycles]
    assert [c.argmin for c in a.cycles] == [c.argmin for c in b.cycles]
    assert [c.center_value for c in a.cycles] == [c.center_value for c in b.cycles]
    assert a.total_simulations == b.total_simulations


def test_off_grid_start_reports_error(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(valley_grid, (99, 0), backend, OptimizerConfig())
    assert trace.terminated_reason == "error"
    assert trace.error


def test_backend_failure_mid_run(valley_grid):
    class Flaky(SyntheticValleyObjective):
        def _components(self, theta):
            if self.calls > 6:
                raise FlowError("solver exploded")
            return super()._components(theta)

    trace = run_optimization(
        valley_grid, valley_grid.index_of((3.9, 1.7)), backend=Flaky(), config=OptimizerConfig()
    )
    assert trace.terminated_reason == "error"
    assert "solver exploded" in trace.error


def test_programming_error_propagates(valley_grid):
    # Only backend failures end a run as "error"; a bug surfaces as itself.
    class Buggy(SyntheticValleyObjective):
        def _components(self, theta):
            if self.calls > 6:
                raise KeyError("not a backend failure")
            return super()._components(theta)

    with pytest.raises(KeyError, match="not a backend failure"):
        run_optimization(
            valley_grid, valley_grid.index_of((3.9, 1.7)), backend=Buggy(), config=OptimizerConfig()
        )


def test_max_cycles_reason(valley_grid):
    backend = SyntheticValleyObjective()
    trace = run_optimization(
        valley_grid,
        valley_grid.index_of((3.9, 1.7)),
        backend,
        OptimizerConfig(max_cycles=2),
    )
    assert trace.terminated_reason == "max_cycles"
    assert trace.path_length == 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_resize_never_exceeds_nominal_size(data):
    d = data.draw(st.integers(1, 3))
    shape = [data.draw(st.integers(2, 30)) for _ in range(d)]
    grid = ParameterGrid(mins=(0.0,) * d, maxs=tuple(float(k - 1) for k in shape), steps=(1.0,) * d)
    center = tuple(data.draw(st.integers(0, k - 1)) for k in shape)
    old = make_neighborhood(grid, center, [data.draw(st.integers(0, 5)) for _ in range(d)])
    stable = tuple(data.draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(lambda s: not all(s))))
    nominal = data.draw(st.none() | st.integers(1, 2000))
    radii = resize_neighborhood(old, stable, nominal_size=nominal)
    target = old.nominal_size if nominal is None else nominal
    assert math.prod(2 * r + 1 for r in radii) <= target
    assert all(r == 0 for r, s in zip(radii, stable) if s)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["alternating", "off"]),
    st.integers(2, 3),
    st.sampled_from([0.05, 0.3, 1.5]),  # 1.5 lets every axis look stable
    st.integers(1, 2),
    st.data(),
)
def test_property_freezing_never_empties_the_action_set(freeze_mode, d, epsilon, radius, data):
    # An anisotropic bowl whose weights make some axes look flat.
    grid = ParameterGrid(mins=(0.0,) * d, maxs=(1.0,) * d, steps=(0.1,) * d)
    weights = [data.draw(st.floats(0.01, 10.0)) for _ in range(d)]
    bottom = [data.draw(st.floats(0.0, 1.0)) for _ in range(d)]
    start = tuple(data.draw(st.integers(0, 10)) for _ in range(d))

    def bowl(theta):
        return sum(w * (t - b) ** 2 for w, t, b in zip(weights, theta, bottom))

    config = OptimizerConfig(
        epsilon=epsilon, initial_radii=(radius,) * d, freeze_mode=freeze_mode, max_cycles=8
    )
    trace = run_optimization(grid, start, bowl, config)
    assert trace.terminated_reason in ("converged", "max_cycles")
    for cycle in trace.cycles:
        assert cycle.active_dims
        assert sorted(cycle.active_dims + cycle.frozen_dims) == list(range(d))


class _Quadratic(CountingObjective):
    """c + g.theta + theta.H.theta, with every evaluated theta recorded."""

    def __init__(self, c, g, H):
        super().__init__()
        self.d = len(g)
        self.c, self.g, self.H = c, np.array(g), np.array(H)
        self.evaluated = []

    def _components(self, theta):
        self.evaluated.append(theta)
        t = np.array(theta)
        r = float(self.c + self.g @ t + t @ self.H @ t)
        return r, 0.0, r


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["alternating", "off"]), st.data())
def test_property_run_invariants_on_random_quadratics(d, freeze_mode, data):
    # Any quadratic, convex or not, on a small grid: the run's books and
    # its path obey the loop's contract whatever the landscape.
    coefficient = st.floats(-2.0, 2.0)
    H = np.array([[data.draw(coefficient) for _ in range(d)] for _ in range(d)])
    backend = _Quadratic(data.draw(coefficient), [data.draw(coefficient) for _ in range(d)], (H + H.T) / 2)
    shape = [data.draw(st.integers(2, 8)) for _ in range(d)]
    grid = ParameterGrid(mins=(0.0,) * d, maxs=tuple(0.25 * (k - 1) for k in shape), steps=(0.25,) * d)
    start = tuple(data.draw(st.integers(0, k - 1)) for k in shape)
    radii = tuple(data.draw(st.integers(1, 2)) for _ in range(d))
    max_cycles = data.draw(st.integers(1, 6))
    config = OptimizerConfig(initial_radii=radii, freeze_mode=freeze_mode, max_cycles=max_cycles)
    trace = run_optimization(grid, start, backend, config)

    # One simulation per distinct point, and no point paid twice.
    assert trace.total_simulations == len(set(backend.evaluated)) == len(backend.evaluated) == backend.calls
    assert all(grid.contains(c) for c in trace.centers())
    for cycle in trace.cycles:
        assert make_neighborhood(grid, cycle.center, cycle.radii).contains(cycle.argmin)
        assert cycle.argmin in cycle.value_table.members
    if trace.terminated_reason == "converged":
        last = trace.cycles[-1]
        assert last.argmin == last.center and last.frozen_dims == ()
