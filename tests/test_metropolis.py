import contextlib
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesopt.grid import ActionSet, ParameterGrid, make_neighborhood
from mesopt.metropolis import hitting_time_experiment
from oracles import _DyadicGenerator, _reference_walks, _rows_from_row_weights, transition_matrix

#: The walk command's default budget and temperature (``WalkSettings``).
WALK = dict(max_steps=5000, t0=1.0)


@pytest.fixture
def line_grid():
    return ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(0.1,))


def test_hand_computed_rows(line_grid):
    # Three states with v = (0, 1, 0) and beta = ln 2.
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = np.array([0.0, 1.0, 0.0])  # members (4,), (5,), (6,)
    matrix = transition_matrix(values, n, ActionSet(d=1), beta=math.log(2.0))
    # Center row: both moves go downhill (weight 1), stay weight 1 -> uniform.
    np.testing.assert_allclose(matrix[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    # Left member: stay weight 1, uphill move weight 1/2, off-box move dropped.
    np.testing.assert_allclose(matrix[0], [2 / 3, 1 / 3, 0.0], atol=1e-15)


def test_beta_zero_is_uniform(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(2,))
    rng = np.random.default_rng(3)
    values = rng.normal(size=n.size)
    matrix = transition_matrix(values, n, ActionSet(d=1), beta=0.0)
    # Members (3,) .. (7,): row 2 is (5,), row 0 is (3,).
    np.testing.assert_allclose(matrix[2], [0, 1 / 3, 1 / 3, 1 / 3, 0], atol=1e-15)
    np.testing.assert_allclose(matrix[0], [1 / 2, 1 / 2, 0, 0, 0], atol=1e-15)


def test_rows_stochastic_and_supported_on_allowed_moves():
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    rng = np.random.default_rng(11)
    for trial in range(50):
        center = tuple(int(c) for c in rng.integers(0, 11, size=2))
        radii = tuple(int(r) for r in rng.integers(0, 3, size=2))
        n = make_neighborhood(grid, center=center, radii=radii)
        values = rng.normal(scale=5.0, size=n.size)
        actions = ActionSet(2, {0} if trial % 3 == 0 else {0, 1})
        beta = float(rng.uniform(0.0, 10.0))
        matrix = transition_matrix(values, n, actions, beta)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(matrix >= 0.0)
        for i, s in enumerate(n.members):
            for j, t in enumerate(n.members):
                if matrix[i, j] == 0.0:
                    continue
                delta = tuple(b - a for a, b in zip(s, t))
                assert delta in actions.moves


def test_downhill_ordering(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = np.array([-2.0, 0.0, 3.0])  # members (4,), (5,), (6,)
    matrix = transition_matrix(values, n, ActionSet(d=1), beta=1.7)
    row = matrix[n.members.index((5,))]
    assert row[n.members.index((4,))] >= row[n.members.index((6,))]


def test_tie_values_get_stay_weight(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = np.array([1.0, 1.0, 1.0])
    matrix = transition_matrix(values, n, ActionSet(d=1), beta=50.0)
    np.testing.assert_allclose(matrix[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_missing_values_and_negative_beta_rejected(line_grid):
    n = make_neighborhood(line_grid, center=(5,), radii=(1,))
    values = np.zeros(2)  # one value short of the box's 3 members
    with pytest.raises(ValueError, match="2 values for a box of 3 members"):
        transition_matrix(values, n, ActionSet(d=1), beta=1.0)
    with pytest.raises(ValueError):
        transition_matrix(np.zeros(n.size), n, ActionSet(d=1), beta=-0.5)


def test_walk_descends_ramp_in_greedy_limit(line_grid):
    # Uphill weights are below exp(-138) from the first step on; stay keeps
    # weight 1, so the path may dwell but never climbs.
    values = {p: float(p[0]) for p in line_grid.points()}  # strictly decreasing leftward
    stats = hitting_time_experiment(values, line_grid, (10,), "free", n_walks=3, seed=0, max_steps=5000, t0=0.005)
    pos = [p[0] for p in stats.path]
    assert all(b <= a for a, b in zip(pos, pos[1:]))
    assert pos[-1] == 0 and stats.target == (0,)
    assert all(stats.hits)


def test_walk_determinism(line_grid):
    rng = np.random.default_rng(5)
    values = {p: float(rng.normal()) for p in line_grid.points()}
    a = hitting_time_experiment(values, line_grid, (5,), "free", n_walks=6, seed=42, max_steps=60, t0=1.0)
    b = hitting_time_experiment(values, line_grid, (5,), "free", n_walks=6, seed=42, max_steps=60, t0=1.0)
    assert (a.steps, a.hits, a.path) == (b.steps, b.hits, b.path)
    assert len(a.path) == a.steps[0] + 1


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
    stats = hitting_time_experiment(values, grid, start, "free", n_walks=5, seed=0, **WALK)
    assert stats.steps == [0] * 5
    assert all(stats.hits)


def test_fixed_mode_slower_than_free_small():
    grid = ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))
    values = _valley_values(grid)
    start = grid.index_of((3.5, 3.5))
    free = hitting_time_experiment(values, grid, start, "free", n_walks=30, seed=7, **WALK)
    fixed = hitting_time_experiment(values, grid, start, "fixed", n_walks=30, seed=7, **WALK)
    assert fixed.mean_steps > free.mean_steps


def test_modes_coincide_in_one_dimension():
    grid = ParameterGrid(mins=(-3.0,), maxs=(2.0,), steps=(0.05,))
    values = {p: (grid.theta(p)[0] - 1.0) ** 2 for p in grid.points()}
    start = grid.index_of((-2.0,))
    free = hitting_time_experiment(values, grid, start, "free", n_walks=20, seed=3, **WALK)
    fixed = hitting_time_experiment(values, grid, start, "fixed", n_walks=20, seed=3, **WALK)
    assert free.steps == fixed.steps


def test_non_unique_argmin_rejected():
    grid = ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(0.5,))
    values = {(0,): 0.0, (1,): 0.0, (2,): 1.0}
    with pytest.raises(ValueError):
        hitting_time_experiment(values, grid, (2,), "free", n_walks=1, seed=0, **WALK)


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
    return transition_matrix(np.array(values), n, actions, beta)


@settings(max_examples=60, deadline=None)
@given(box_kernels())
def test_property_rows_stochastic_and_stay_heaviest(m):
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(m >= 0.0)
    # Stay carries weight 1, every move at most 1: its share is the largest.
    stay = np.diag(m)
    assert np.all(stay[:, None] >= m)


@st.composite
def grid_values(draw, max_d=2):
    """A small grid and a value table on it with plateaus and one strict argmin."""
    d = draw(st.integers(1, max_d))
    shape = [draw(st.integers(2, 5)) for _ in range(d)]
    grid = ParameterGrid(mins=(0.0,) * d, maxs=[n - 1.0 for n in shape], steps=(1.0,) * d)
    points = list(grid.points())
    level = st.sampled_from([0.0, 0.5, 1.0, 3.0])
    values = {p: draw(st.one_of(level, st.floats(-5.0, 5.0))) for p in points}
    values[draw(st.sampled_from(points))] = -10.0
    start = draw(st.sampled_from(points))
    return values, grid, start


@settings(max_examples=60, deadline=None)
@given(grid_values(), st.sampled_from(["free", "fixed"]), st.floats(0.1, 10.0), st.integers(0, 40),
       st.integers(0, 2**32 - 1))
def test_property_walk_visits_only_positive_weight_targets(case, mode, t0, max_steps, seed):
    values, grid, start = case
    stats = hitting_time_experiment(values, grid, start, mode, n_walks=1, seed=seed,
                                    max_steps=max_steps, t0=t0)
    path = stats.path
    assert len(path) == stats.steps[0] + 1 and path[0] == start
    d = grid.d
    phases = ([ActionSet(d, frozenset(range(d)) - {k}) for k in range(d)]
              if mode == "fixed" and d >= 2 else [ActionSet(d)])
    for t, (here, there) in enumerate(zip(path, path[1:])):
        assert grid.contains(there)
        delta = tuple(b - a for a, b in zip(here, there))
        assert delta in phases[(t // max(grid.shape)) % len(phases)].moves
        beta = math.log(2.0 + t) / t0
        assert math.exp(-beta * max(values[there] - values[here], 0.0)) > 0.0


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
    return np.array(values), n, actions


@settings(max_examples=80, deadline=None)
@given(clipped_boxes(), st.sampled_from([0.0, 0.9, 1e3]))
def test_property_kernel_matches_row_by_row_definition(box, beta):
    # beta = 1e3 underflows exp on every uphill move steeper than 0.75.
    values, n, actions = box
    matrix = transition_matrix(values, n, actions, beta)
    # numpy's vectorised exp and libm's math.exp may differ in the last bit;
    # with the same exp the two constructions agree bitwise.
    by_member = dict(zip(n.members, values.tolist()))
    reference = _rows_from_row_weights(by_member, n, actions, beta, exp=lambda x: float(np.exp(x)))
    np.testing.assert_array_equal(matrix, reference)
    np.testing.assert_allclose(
        matrix, _rows_from_row_weights(by_member, n, actions, beta), rtol=1e-15, atol=1e-300
    )


@settings(max_examples=150, deadline=None)
@given(
    grid_values(max_d=3),
    st.sampled_from(["free", "fixed"]),
    st.floats(0.1, 10.0),
    st.integers(0, 80),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_property_table_walk_matches_row_by_row_walk(
    case, mode, t0, max_steps, n_walks, seed, dyadic
):
    values, grid, start = case
    generators = (
        mock.patch("numpy.random.default_rng", _DyadicGenerator)
        if dyadic
        else contextlib.nullcontext()
    )
    with generators:
        stats = hitting_time_experiment(values, grid, start, mode, n_walks, seed, max_steps, t0)
        reference = _reference_walks(values, grid, start, mode, n_walks, seed, max_steps, t0)
    assert (stats.steps, stats.hits, stats.path) == reference


def test_long_walk_budget_holds_no_draws_in_memory():
    # One step from the argmin, the walk hits with probability 1/2 per step;
    # a budget of 10**7 steps must not be drawn up front (80 MB).
    grid = ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(1.0,))
    values = {(0,): 0.0, (1,): 1.0}
    tracemalloc.start()
    try:
        stats = hitting_time_experiment(
            values, grid, (1,), "free", n_walks=1, seed=0, max_steps=10**7, t0=1.0
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.hits == [True]
    assert peak < 2**20


def test_long_censored_walks_keep_only_walk_zero_path():
    # (2,) is a local minimum; at t0 = 1e-3 every uphill weight underflows
    # to 0 from the first step on, so both walks stay there for the whole
    # budget.  Besides walk 0's path, memory must not grow with the budget:
    # no -beta table as long as the walk, no visited list for walk 1.
    grid = ParameterGrid(mins=(0.0,), maxs=(3.0,), steps=(1.0,))
    values = {(0,): 0.0, (1,): 5.0, (2,): 1.0, (3,): 5.0}
    tracemalloc.start()
    try:
        stats = hitting_time_experiment(
            values, grid, (2,), "free", n_walks=2, seed=0, max_steps=200_000, t0=1e-3
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.steps == [200_000, 200_000]
    assert stats.hits == [False, False]
    assert stats.path == [(2,)] * 200_001
    assert peak < sys.getsizeof(stats.path) + 2**20


def test_walk_rejects_value_table_missing_a_node():
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.5, 0.5))
    values = {p: float(sum(p)) for p in grid.points() if p != (2, 1)}
    # The start is the argmin, so no walk would ever reach (2, 1).
    with pytest.raises(KeyError, match=r"1 grid nodes, e\.g\. \(2, 1\)"):
        hitting_time_experiment(values, grid, (0, 0), "free", n_walks=1, seed=0, **WALK)
