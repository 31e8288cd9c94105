import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesopt import metropolis
from mesopt.grid import ActionSet, ParameterGrid, make_neighborhood
from mesopt.metropolis import hitting_time_experiment, sample_walk, transition_matrix


@pytest.fixture
def line_grid():
    return ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(0.1,))


def test_hand_computed_rows(line_grid):
    # Three states with v = (0, 1, 0) and beta = ln 2.
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = {(4,): 0.0, (5,): 1.0, (6,): 0.0}
    model = transition_matrix(values, n, ActionSet(d=1), beta=math.log(2.0))
    # Center row: both moves go downhill (weight 1), stay weight 1 -> uniform.
    np.testing.assert_allclose(model.row((5,)), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    # Left member: stay weight 1, uphill move weight 1/2, off-box move dropped.
    np.testing.assert_allclose(model.row((4,)), [2 / 3, 1 / 3, 0.0], atol=1e-15)


def test_beta_zero_is_uniform(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(2,))
    rng = np.random.default_rng(3)
    values = {s: float(rng.normal()) for s in n.members}
    model = transition_matrix(values, n, ActionSet(d=1), beta=0.0)
    np.testing.assert_allclose(model.row((5,)), [0, 1 / 3, 1 / 3, 1 / 3, 0], atol=1e-15)
    np.testing.assert_allclose(model.row((3,)), [1 / 2, 1 / 2, 0, 0, 0], atol=1e-15)


def test_rows_stochastic_and_supported_on_allowed_moves():
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    rng = np.random.default_rng(11)
    for trial in range(50):
        center = tuple(int(c) for c in rng.integers(0, 11, size=2))
        radii = tuple(int(r) for r in rng.integers(0, 3, size=2))
        n = make_neighborhood(grid, center=center, radii=radii)
        values = {s: float(rng.normal(scale=5.0)) for s in n.members}
        actions = ActionSet(2, {0} if trial % 3 == 0 else {0, 1})
        beta = float(rng.uniform(0.0, 10.0))
        model = transition_matrix(values, n, actions, beta)
        np.testing.assert_allclose(model.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(model.matrix >= 0.0)
        for i, s in enumerate(model.states):
            for j, t in enumerate(model.states):
                if model.matrix[i, j] == 0.0:
                    continue
                delta = tuple(b - a for a, b in zip(s, t))
                assert delta in actions.moves


def test_downhill_ordering(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = {(4,): -2.0, (5,): 0.0, (6,): 3.0}
    model = transition_matrix(values, n, ActionSet(d=1), beta=1.7)
    row = model.row((5,))
    assert row[model.index[(4,)]] >= row[model.index[(6,)]]


def test_tie_values_get_stay_weight(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = {(4,): 1.0, (5,): 1.0, (6,): 1.0}
    model = transition_matrix(values, n, ActionSet(d=1), beta=50.0)
    np.testing.assert_allclose(model.row((5,)), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_missing_values_and_negative_beta_rejected(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = {(4,): 0.0, (5,): 0.0}
    with pytest.raises(KeyError):
        transition_matrix(values, n, ActionSet(d=1), beta=1.0)
    with pytest.raises(ValueError):
        transition_matrix({s: 0.0 for s in n.members}, n, ActionSet(d=1), beta=-0.5)


def test_walk_descends_ramp_in_greedy_limit(line_grid):
    # Uphill weight vanishes at large beta; stay keeps weight 1, so the path
    # may dwell but never climbs.
    n = make_neighborhood(line_grid, center=(5,), radii=(5,))
    values = {s: float(s[0]) for s in n.members}  # strictly decreasing leftward
    model = transition_matrix(values, n, ActionSet(d=1), beta=200.0)
    path = sample_walk(model, start=(10,), n_steps=60, seed=0)
    pos = [p[0] for p in path]
    assert all(b <= a for a, b in zip(pos, pos[1:]))
    assert pos[-1] == 0


def test_walk_with_no_changeable_dims_stays_put(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(2,))
    values = {s: 0.0 for s in n.members}
    model = transition_matrix(values, n, ActionSet(1, changeable=()), beta=1.0)
    path = sample_walk(model, start=(4,), n_steps=7, seed=1)
    assert path == [(4,)] * 8


def test_walk_determinism(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(4,))
    rng = np.random.default_rng(5)
    values = {s: float(rng.normal()) for s in n.members}
    model = transition_matrix(values, n, ActionSet(d=1), beta=0.8)
    a = sample_walk(model, start=(5,), n_steps=60, seed=42)
    b = sample_walk(model, start=(5,), n_steps=60, seed=42)
    assert a == b
    assert len(a) == 61


def _valley_values(grid):
    vals = {}
    for p in grid.points():
        f, b = grid.theta(p)
        vals[p] = 5 * (f - 2) ** 2 + 0.2 * (b - 2.5) ** 2 + 0.05 * (f - 2) * (b - 2.5)
    return vals


def test_hitting_time_zero_at_argmin():
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    values = _valley_values(grid)
    start = grid.index_of((2.0, 2.5))
    stats = hitting_time_experiment(values, grid, start, "free", n_walks=5, seed=0)
    assert stats.steps == [0] * 5
    assert all(stats.hits)


def test_fixed_mode_slower_than_free_small():
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    values = _valley_values(grid)
    start = grid.index_of((3.5, 3.5))
    free = hitting_time_experiment(values, grid, start, "free", n_walks=30, seed=7)
    fixed = hitting_time_experiment(values, grid, start, "fixed", n_walks=30, seed=7)
    assert fixed.mean_steps > free.mean_steps


def test_modes_coincide_in_one_dimension():
    grid = ParameterGrid(mins=(-3.0,), maxs=(2.0,), steps=(0.05,))
    values = {p: (grid.theta(p)[0] - 1.0) ** 2 for p in grid.points()}
    start = grid.index_of((-2.0,))
    free = hitting_time_experiment(values, grid, start, "free", n_walks=20, seed=3)
    fixed = hitting_time_experiment(values, grid, start, "fixed", n_walks=20, seed=3)
    assert free.steps == fixed.steps


def test_non_unique_argmin_rejected():
    grid = ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(0.5,))
    values = {(0,): 0.0, (1,): 0.0, (2,): 1.0}
    with pytest.raises(ValueError):
        hitting_time_experiment(values, grid, (2,), "free", n_walks=1, seed=0)


@st.composite
def box_kernels(draw):
    """Kernel on a random clipped box, value table, action set and beta."""
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    center = (draw(st.integers(0, 10)), draw(st.integers(0, 10)))
    radii = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    n = make_neighborhood(grid, center=center, radii=radii)
    values = draw(st.lists(st.floats(-50.0, 50.0), min_size=n.size, max_size=n.size))
    actions = ActionSet(2, draw(st.sets(st.integers(0, 1))))
    beta = draw(st.floats(0.0, 20.0))
    return transition_matrix(dict(zip(n.members, values)), n, actions, beta)


@settings(max_examples=60, deadline=None)
@given(box_kernels())
def test_property_rows_stochastic_and_stay_heaviest(model):
    m = model.matrix
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(m >= 0.0)
    # Stay carries weight 1, every move at most 1: its share is the largest.
    stay = np.diag(m)
    assert np.all(stay[:, None] >= m)


@settings(max_examples=60, deadline=None)
@given(box_kernels(), st.integers(0, 40), st.integers(0, 2**32 - 1), st.data())
def test_property_walk_visits_only_positive_weight_targets(model, n_steps, seed, data):
    start = data.draw(st.sampled_from(model.states))
    path = sample_walk(model, start=start, n_steps=n_steps, seed=seed)
    assert len(path) == n_steps + 1 and path[0] == start
    for here, there in zip(path, path[1:]):
        assert model.row(here)[model.index[there]] > 0.0


@st.composite
def clipped_boxes(draw):
    """Value table on a random clipped box of a 1-d or 2-d grid, and moves."""
    d = draw(st.sampled_from([1, 2]))
    grid = ParameterGrid(mins=(0.0,) * d, maxs=(1.0,) * d, steps=(0.1,) * d)
    center = tuple(draw(st.integers(0, 10)) for _ in range(d))
    radii = tuple(draw(st.integers(0, 3)) for _ in range(d))
    n = make_neighborhood(grid, center=center, radii=radii)
    values = draw(st.lists(st.floats(-50.0, 50.0), min_size=n.size, max_size=n.size))
    actions = ActionSet(d, draw(st.sets(st.integers(0, d - 1))))
    return dict(zip(n.members, values)), n, actions


def _rows_from_row_weights(values, n, actions, beta):
    """The kernel built one row at a time, as the matrix-free walk sees it."""
    index = {s: k for k, s in enumerate(n.members)}
    matrix = np.zeros((n.size, n.size))
    for k, state in enumerate(n.members):
        targets, weights = metropolis._row_weights(values, state, actions, beta, n.contains)
        total = sum(weights)
        for target, w in zip(targets, weights):
            matrix[k, index[target]] = w / total
    return matrix


@settings(max_examples=80, deadline=None)
@given(clipped_boxes(), st.sampled_from([0.0, 0.9, 1e3]))
def test_property_kernel_matches_row_by_row_definition(box, beta):
    # beta = 1e3 underflows exp on every uphill move steeper than 0.75.
    values, n, actions = box
    model = transition_matrix(values, n, actions, beta)
    # numpy's vectorised exp and libm's math.exp may differ in the last bit;
    # with the same exp the two constructions agree bitwise.
    numpy_exp = SimpleNamespace(exp=lambda x: float(np.exp(x)))
    with mock.patch.object(metropolis, "math", numpy_exp):
        reference = _rows_from_row_weights(values, n, actions, beta)
    np.testing.assert_array_equal(model.matrix, reference)
    np.testing.assert_allclose(
        model.matrix, _rows_from_row_weights(values, n, actions, beta), rtol=1e-15, atol=1e-300
    )
