import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesopt.grid import ActionSet, GridError, ParameterGrid, make_neighborhood


@pytest.fixture
def grid2d():
    # f in [1.5, 4.0] step 0.1, b in [1.5, 4.0] step 0.1 -> 26 x 26 nodes
    return ParameterGrid(mins=(1.5, 1.5), maxs=(4.0, 4.0), steps=(0.1, 0.1))


def test_grid_shape_and_theta(grid2d):
    assert grid2d.shape == (26, 26)
    assert grid2d.theta((0, 0)) == (1.5, 1.5)
    f, b = grid2d.theta((5, 24))
    assert f == pytest.approx(2.0)
    assert b == pytest.approx(3.9)
    assert grid2d.index_of((2.0, 3.9)) == (5, 24)


def test_grid_rejects_non_integer_span():
    with pytest.raises(GridError):
        ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(0.3,))
    with pytest.raises(GridError):
        ParameterGrid(mins=(0.0,), maxs=(0.0,), steps=(0.1,))
    with pytest.raises(GridError):
        ParameterGrid(mins=(0.0,), maxs=(1.0,), steps=(-0.1,))


def test_index_of_rejects_off_grid(grid2d):
    with pytest.raises(GridError, match=r"value 2\.05 is not a grid node of step 0\.1 from 1\.5"):
        grid2d.index_of((2.05, 3.9))
    # 0.0 and 4.1 are lattice nodes (k = -15 and 26) past the bounds.
    with pytest.raises(GridError, match=r"value 0\.0 lies outside the grid's bounds \[1\.5, 4\.0\]"):
        grid2d.index_of((0.0, 2.0))
    with pytest.raises(GridError, match=r"value 4\.1 lies outside the grid's bounds \[1\.5, 4\.0\]"):
        grid2d.index_of((2.0, 4.1))


def test_index_of_rejects_a_wrong_number_of_coordinates(grid2d):
    line = ParameterGrid(mins=(-3.0,), maxs=(2.0,), steps=(0.05,))
    with pytest.raises(GridError, match="2 coordinates on a 1-d grid"):
        line.index_of((1.0, 99.0))  # once read as (80,), dropping 99.0
    with pytest.raises(GridError, match="1 coordinates on a 2-d grid"):
        grid2d.index_of((2.0,))
    with pytest.raises(GridError, match="2 coordinates on a 1-d grid"):
        line.index_of((9.7, 3.9))  # the length is named before the bound


def test_interior_neighborhood_counts(grid2d):
    # 7x7 box
    n = make_neighborhood(grid2d, center=(10, 10), radii=(3, 3))
    assert n.size == 49
    assert (10, 10) in n.members
    assert n.members == tuple(sorted(n.members))


def test_degenerate_neighborhood(grid2d):
    n = make_neighborhood(grid2d, center=(4, 7), radii=(0, 0))
    assert n.members == ((4, 7),)


def test_corner_clipping(grid2d):
    # Corner center with radii (1,1): the 3x3 box loses the out-of-grid half.
    n = make_neighborhood(grid2d, center=(0, 0), radii=(1, 1))
    assert n.size == 4
    assert set(n.members) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_axis_line(grid2d):
    n = make_neighborhood(grid2d, center=(10, 10), radii=(2, 3))
    line_f = n.axis_line(0)
    assert line_f == tuple((i, 10) for i in range(8, 13))
    line_b = n.axis_line(1)
    assert line_b == tuple((10, j) for j in range(7, 14))


def test_neighborhood_requires_on_grid_center(grid2d):
    with pytest.raises(GridError):
        make_neighborhood(grid2d, center=(30, 0), radii=(1, 1))


def test_action_set_moves():
    full = ActionSet(d=2)
    assert full.moves[0] == (0, 0)  # stay always present, listed first
    assert set(full.moves) == {(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)}
    only_b = ActionSet(d=2, changeable={1})
    assert set(only_b.moves) == {(0, 0), (0, -1), (0, 1)}
    assert only_b.frozen() == (0,)
    none = ActionSet(d=2, changeable=())
    assert none.moves == ((0, 0),)
    with pytest.raises(GridError):
        ActionSet(d=2, changeable={5})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_index_of_inverts_theta(data):
    d = data.draw(st.integers(1, 3))
    mins = [data.draw(st.floats(-50.0, 50.0)) for _ in range(d)]
    steps = [data.draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.3, 1.0, 2.5])) for _ in range(d)]
    counts = [data.draw(st.integers(1, 60)) for _ in range(d)]
    grid = ParameterGrid(mins, [lo + k * s for lo, k, s in zip(mins, counts, steps)], steps)
    point = tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)
    assert grid.index_of(grid.theta(point)) == point


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_box_thetas_are_the_bytes_of_member_thetas(data):
    d = data.draw(st.integers(1, 3))
    mins = [data.draw(st.floats(-50.0, 50.0)) for _ in range(d)]
    steps = [data.draw(st.floats(0.01, 1.0)) for _ in range(d)]
    counts = [data.draw(st.integers(1, 12)) for _ in range(d)]
    grid = ParameterGrid(mins, [lo + k * s for lo, k, s in zip(mins, counts, steps)], steps)
    center = tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)
    radii = tuple(data.draw(st.integers(0, 4)) for _ in range(d))
    n = make_neighborhood(grid, center, radii)
    thetas = n.thetas()
    assert thetas.tobytes() == np.array([grid.theta(p) for p in n.members]).tobytes()
    # A transposed array keeps the bytes of tobytes() but moves the last bits
    # of the surrogate's monomial_row(...) @ coeffs, so the layout is pinned too.
    assert thetas.flags.c_contiguous
