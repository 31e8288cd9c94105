import contextlib
import itertools
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mesopt import value
from mesopt.grid import ActionSet, ParameterGrid, make_neighborhood
from mesopt.metropolis import _box_plan, _grid_rows
from mesopt.objectives import fictitious_1d
from mesopt.reduction import surrogate_sample_points
from mesopt.surrogate import fit_surrogate, monomial_row
from mesopt.value import (
    _BLOCK,
    CoolingSchedule,
    ValueTable,
    _band_solve,
    argmin_value,
    fixed_point_iterates,
    value_fixed_point,
)
from oracles import (
    _DyadicGenerator,
    _local_argmins,
    dense_step,
    dense_weight_step,
    discounted_power_sum,
    mc_value_estimate,
    oracle_mc_estimate,
    stepwise_annealed_map,
    transition_matrix,
)


#: The optimizer's default stopping rule (``OptimizerConfig``).
FP = dict(tol_v=1e-6, max_j=60)


@pytest.fixture
def box3x3():
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    return grid, make_neighborhood(grid, center=(5, 5), radii=(1, 1))


def test_cooling_schedules():
    std = CoolingSchedule("standard-log", t0=2.0)
    lit = CoolingSchedule("inverse-log", t0=2.0)
    assert std.beta(0) == pytest.approx(np.log(2.0) / 2.0)
    # standard-log cools (beta grows); the literal formula heats instead.
    assert std.beta(10) > std.beta(0)
    assert lit.beta(10) < lit.beta(0)
    assert all(s.beta(j) > 0 for s in (std, lit) for j in range(40))
    with pytest.raises(ValueError):
        CoolingSchedule("warm", t0=1.0)
    with pytest.raises(ValueError):
        CoolingSchedule("standard-log", t0=0.0)


def test_gamma_zero_identity(box3x3):
    grid, n = box3x3
    rng = np.random.default_rng(0)
    rhat = rng.normal(size=n.size)
    table = value_fixed_point(rhat, n, ActionSet(2), gamma=0.0, schedule=CoolingSchedule(), **FP)
    assert table.converged
    np.testing.assert_array_equal(table.values, rhat)


def test_constant_table_geometric_series(box3x3):
    # Policy-independent: constant rewards give r / (1 - gamma) everywhere.
    grid, n = box3x3
    rhat = np.full(n.size, 2.5)
    table = value_fixed_point(rhat, n, ActionSet(2), gamma=0.9, schedule=CoolingSchedule(), **FP)
    assert table.converged
    for v in table.values:
        assert v == pytest.approx(25.0, abs=1e-9)


def test_values_bounded_by_discounted_range(box3x3):
    grid, n = box3x3
    rng = np.random.default_rng(4)
    for _ in range(20):
        rhat = rng.normal(scale=3.0, size=n.size)
        gamma = float(rng.uniform(0.0, 0.95))
        table = value_fixed_point(
            rhat, n, ActionSet(2), gamma=gamma, schedule=CoolingSchedule(t0=0.7), tol_v=1e-6, max_j=8
        )
        lo = min(rhat) / (1.0 - gamma)
        hi = max(rhat) / (1.0 - gamma)
        for v in table.values:
            assert lo - 1e-9 <= v <= hi + 1e-9


def test_fixed_point_reports_history_and_iterations(box3x3):
    grid, n = box3x3
    rng = np.random.default_rng(8)
    rhat = rng.normal(size=n.size)
    table = value_fixed_point(
        rhat, n, ActionSet(2), gamma=0.9, schedule=CoolingSchedule(), tol_v=1e-10, max_j=3
    )
    assert table.iterations == len(table.history)
    if not table.converged:
        assert table.iterations == 3


def test_invalid_arguments(box3x3):
    grid, n = box3x3
    rhat = np.zeros(n.size)
    with pytest.raises(ValueError):
        value_fixed_point(rhat, n, ActionSet(2), gamma=1.0, schedule=CoolingSchedule(), **FP)
    with pytest.raises(ValueError):
        value_fixed_point(rhat, n, ActionSet(2), gamma=0.5, schedule=CoolingSchedule(), tol_v=0.0, max_j=60)
    for gamma in (0.5, 0.0):  # a negative beta is rejected even where no walk is taken
        with pytest.raises(ValueError, match="inverse temperature"):
            mc_value_estimate(rhat, n, ActionSet(2), gamma=gamma, beta=-0.5, n_walks=2, horizon=3, seed=0)


def test_mc_gamma_zero_matches_rhat_exactly(box3x3):
    grid, n = box3x3
    rng = np.random.default_rng(1)
    rhat = rng.normal(size=n.size)
    est, _ = mc_value_estimate(rhat, n, ActionSet(2), gamma=0.0, beta=1.0, n_walks=3, horizon=5, seed=9)
    np.testing.assert_array_equal(est, rhat)


def test_mc_frozen_actions_geometric_sum(box3x3):
    grid, n = box3x3
    rng = np.random.default_rng(2)
    rhat = rng.normal(size=n.size)
    gamma, horizon = 0.9, 13
    est, _ = mc_value_estimate(
        rhat, n, ActionSet(2, changeable=()), gamma=gamma, beta=1.0, n_walks=2, horizon=horizon, seed=0
    )
    factor = (1.0 - gamma ** (horizon + 1)) / (1.0 - gamma)
    for r, v in zip(rhat, est):
        assert v == pytest.approx(r * factor, rel=1e-12)


def test_mc_determinism(box3x3):
    grid, n = box3x3
    rng = np.random.default_rng(3)
    rhat = rng.normal(size=n.size)
    kw = dict(gamma=0.8, beta=0.5, n_walks=50, horizon=10, seed=77)
    a = mc_value_estimate(rhat, n, ActionSet(2), **kw)
    b = mc_value_estimate(rhat, n, ActionSet(2), **kw)
    np.testing.assert_array_equal(a, b)


def test_mc_agrees_with_matrix_power_oracle():
    # Exact evaluator with the same fixed kernel and horizon is the oracle.
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.25, 0.25))
    n = make_neighborhood(grid, center=(2, 2), radii=(1, 1))
    rng = np.random.default_rng(5)
    rhat = rng.normal(size=n.size)
    gamma, beta, horizon = 0.9, 0.8, 30
    matrix = transition_matrix(rhat, n, ActionSet(2), beta)
    exact = discounted_power_sum(matrix, rhat, gamma, horizon)
    est, se = mc_value_estimate(
        rhat, n, ActionSet(2), gamma=gamma, beta=beta, n_walks=4000, horizon=horizon, seed=123
    )
    assert np.all(np.abs(est - exact) <= 3.0 * se + 1e-12)


def test_argmin_value_tie_breaking():
    table = ValueTable(members=((0, 1), (0, 2), (1, 0)), values=np.array([1.0, 1.0, 2.0]),
                       iterations=1, converged=True)
    assert argmin_value(table) == (0, 1)
    single = ValueTable(members=((3, 3),), values=np.array([5.0]), iterations=1, converged=True)
    assert argmin_value(single) == (3, 3)
    with pytest.raises(ValueError):
        argmin_value(ValueTable(members=(), values=np.array([]), iterations=0, converged=False))


def test_fictitious_demo_sharpens_and_keeps_argmins():
    # 1-d run over [-3, 2], delta 0.05: converged V has the same local
    # argmins as the objective and larger discrete curvature there.
    grid = ParameterGrid(mins=(-3.0,), maxs=(2.0,), steps=(0.05,))
    n = make_neighborhood(grid, center=grid.index_of((-0.5,)), radii=(101,))
    r = np.array([fictitious_1d(grid.theta(s)[0]) for s in n.members])
    table = value_fixed_point(
        r, n, ActionSet(1), gamma=0.9, schedule=CoolingSchedule(t0=1e-3), tol_v=1e-6, max_j=30
    )
    v = table.values
    assert _local_argmins(v) == _local_argmins(r)
    for i in _local_argmins(r):
        d2_r = r[i - 1] - 2 * r[i] + r[i + 1]
        d2_v = v[i - 1] - 2 * v[i] + v[i + 1]
        assert d2_v > d2_r


@st.composite
def fixed_point_inputs(draw):
    """(rhat, neighborhood, actions, gamma, schedule) on a random clipped box."""
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    center = (draw(st.integers(0, 10)), draw(st.integers(0, 10)))
    radii = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    n = make_neighborhood(grid, center=center, radii=radii)
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n.size, max_size=n.size))
    actions = ActionSet(2, draw(st.sets(st.integers(0, 1))))
    gamma = draw(st.floats(0.0, 0.95))
    schedule = CoolingSchedule(
        draw(st.sampled_from(["standard-log", "inverse-log"])), t0=draw(st.floats(0.05, 5.0))
    )
    return np.array(values), n, actions, gamma, schedule


@settings(max_examples=40, deadline=None)
@given(fixed_point_inputs(), st.integers(1, 4))
def test_property_iterates_inside_discounted_range(inputs, n_iters):
    # Each iterate of the map is a discounted sum whose weights add up to
    # 1 / (1 - gamma); V_0 = Rhat is the starting point, not an iterate.
    rhat, n, actions, gamma, schedule = inputs
    iterates, _, _ = fixed_point_iterates(rhat, n, actions, gamma, schedule, n_iters)
    lo = min(rhat) / (1.0 - gamma)
    hi = max(rhat) / (1.0 - gamma)
    slack = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    for v in iterates[1:]:
        assert np.all(v >= lo - slack) and np.all(v <= hi + slack)


@settings(max_examples=40, deadline=None)
@given(fixed_point_inputs(), st.integers(0, 4), st.sampled_from([1e-6, 1e-2, 1.0]))
def test_property_both_fixed_point_entries_share_iterates(inputs, max_j, tol_v):
    rhat, n, actions, gamma, schedule = inputs
    iterates, deltas, _ = fixed_point_iterates(rhat, n, actions, gamma, schedule, max_j)
    table = value_fixed_point(rhat, n, actions, gamma, schedule, tol_v=tol_v, max_j=max_j)
    k = table.iterations
    assert table.history == deltas[:k]
    np.testing.assert_array_equal(table.values, iterates[k])
    assert table.converged == (k > 0 and deltas[k - 1] < tol_v)
    if not table.converged:
        assert k == max_j


@settings(max_examples=40, deadline=None)
@given(fixed_point_inputs(), st.integers(1, 3), st.sampled_from([30, 60]))
def test_property_step_is_the_limit_of_the_truncated_sum(inputs, n_iters, horizon):
    # Each step solves for the whole discounted series; truncating it at
    # the horizon H drops at most gamma^(H+1) / (1 - gamma) * max|Rhat|.
    rhat, n, actions, gamma, schedule = inputs
    iterates, _, betas = fixed_point_iterates(rhat, n, actions, gamma, schedule, n_iters)
    r = iterates[0]
    bound = gamma ** (horizon + 1) / (1.0 - gamma) * np.max(np.abs(r)) + 1e-12
    for v, v_next, beta in zip(iterates, iterates[1:], betas):
        matrix = transition_matrix(v, n, actions, beta)
        truncated = discounted_power_sum(matrix, r, gamma, horizon)
        assert np.max(np.abs(v_next - truncated)) <= bound


@settings(max_examples=30, deadline=None)
@given(fixed_point_inputs(), st.integers(1, 3))
def test_property_gamma_zero_returns_rhat_exactly(inputs, n_iters):
    rhat, n, actions, _, schedule = inputs
    iterates, deltas, _ = fixed_point_iterates(rhat, n, actions, 0.0, schedule, n_iters)
    for v in iterates[1:]:
        np.testing.assert_array_equal(v, iterates[0])
    assert deltas == [0.0] * n_iters
    np.testing.assert_array_equal(value_fixed_point(rhat, n, actions, 0.0, schedule, **FP).values, rhat)


@dataclass(frozen=True)
class DrawnBetas:
    """A stand-in cooling schedule that replays drawn inverse temperatures."""

    betas: tuple[float, ...]

    def beta(self, j: int) -> float:
        return self.betas[j]


@st.composite
def box_in_d_dims(draw):
    """(grid, neighborhood, actions) on a random 1- to 3-d grid, box clipped at the bounds."""
    d = draw(st.integers(1, 3))
    shape = [draw(st.integers(2, 7)) for _ in range(d)]
    steps = [draw(st.sampled_from([0.05, 0.1, 0.25, 1.0])) for _ in range(d)]
    mins = [draw(st.integers(-30, 30)) / 10.0 for _ in range(d)]
    maxs = [lo + h * (k - 1) for lo, h, k in zip(mins, steps, shape)]
    grid = ParameterGrid(mins=tuple(mins), maxs=tuple(maxs), steps=tuple(steps))
    center = tuple(draw(st.integers(0, k - 1)) for k in shape)
    radii = tuple(draw(st.integers(0, 3)) for _ in range(d))
    actions = ActionSet(d, draw(st.sets(st.integers(0, d - 1))))  # the empty set freezes all
    return grid, make_neighborhood(grid, center, radii), actions


@settings(max_examples=60, deadline=None)
@given(box_in_d_dims(), st.floats(0.0, 0.99), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4), st.data())
def test_property_band_iterates_match_dense_solve(box, gamma, betas, data):
    # Each step solves (I - gamma P_j) V = Rhat in band storage; from the
    # same V_j a dense solve on the whole kernel gives the same V_{j+1} up
    # to roundoff, measured against the iterate's largest |V|.
    _, n, actions = box
    rhat = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n.size, max_size=n.size)))
    iterates, _, drawn = fixed_point_iterates(rhat, n, actions, gamma, DrawnBetas(tuple(betas)), len(betas))
    assert drawn == betas
    for v, v_next, beta in zip(iterates, iterates[1:], betas):
        oracle = dense_step(v, rhat, n, actions, gamma, beta)
        np.testing.assert_allclose(v_next, oracle, rtol=0.0, atol=1e-12 * np.max(np.abs(oracle)))


def _dgbsv_failing_at(step):
    """A stand-in ``dgbsv`` that solves as LAPACK does but reports info 7 on call ``step``."""
    from scipy.linalg.lapack import dgbsv as real

    calls = itertools.count()

    def dgbsv(*args, **kwargs):
        *out, info = real(*args, **kwargs)
        return (*out, 7) if next(calls) == step else (*out, info)

    return dgbsv


def test_singular_band_system_raises(box3x3, monkeypatch):
    # One sub- and one super-diagonal, all zero, and a zero pivot on the
    # diagonal: LAPACK reports it, and no values come back.
    band = np.zeros((4, 3), order="F")
    band[2] = [1.0, 0.0, 1.0]
    with pytest.raises(np.linalg.LinAlgError):
        _band_solve(band, 1, np.ones(3))
    _, n = box3x3
    args = (np.random.default_rng(8).normal(size=n.size), n, ActionSet(2), 0.9, CoolingSchedule())
    oracle_iterates = []
    _, history, _ = stepwise_annealed_map(*args, 20, 0.0, oracle_iterates)
    # The fixed point's loop checks each of its solves the same way.
    monkeypatch.setattr(value, "_dgbsv", lambda k, _, band, rhs, **kw: (band, None, rhs, 2))
    with pytest.raises(np.linalg.LinAlgError, match="info 2"):
        value_fixed_point(np.zeros(n.size), n, ActionSet(2), 0.5, CoolingSchedule(), **FP)
    # A solve that fails at step ``fail`` (0-based) raises when no earlier
    # step converged, in the first block of the convergence test or a later one.
    for fail in (0, 3, 7, 8, 13):
        monkeypatch.setattr(value, "_dgbsv", _dgbsv_failing_at(fail))
        with pytest.raises(np.linalg.LinAlgError, match="info 7"):
            value_fixed_point(*args, tol_v=1e-300, max_j=20)
    # When the call converges at step ``stop`` (1-based) of the same block,
    # the block's test finds that step first and the failure is dropped: the
    # call returns what a test after every step returns.
    for stop, fail in ((1, 1), (1, 7), (3, 5), (9, 10), (9, 15)):
        assert history[stop - 1] < min(history[: stop - 1], default=np.inf)  # strictly the first to get there
        monkeypatch.setattr(value, "_dgbsv", _dgbsv_failing_at(fail))
        table = value_fixed_point(*args, tol_v=float(np.nextafter(history[stop - 1], np.inf)), max_j=20)
        assert table.values.tobytes() == oracle_iterates[stop].tobytes()
        assert (table.history, table.iterations, table.converged) == (history[:stop], stop, True)


@settings(max_examples=60, deadline=None)
@given(box_in_d_dims(), st.data())
def test_property_box_wide_rhat_matches_member_calls(box, data):
    # The optimizer evaluates Rhat on the whole box in one call; only the
    # summation order of the monomials differs from one call per member,
    # so the two agree to roundoff of the terms they sum.
    grid, n, _ = box
    assume(n.size > 1)  # a one-member box has no sample to fit
    samples = surrogate_sample_points(n)
    draw_value = st.floats(-10.0, 10.0)
    surrogate = fit_surrogate(
        grid.theta(n.center), data.draw(draw_value), [(grid.theta(p), data.draw(draw_value)) for p in samples]
    )
    box_wide = surrogate(n.thetas())
    per_member = np.array([surrogate(grid.theta(p)) for p in n.members])
    disp = n.thetas() - np.array(surrogate.center)
    terms = abs(surrogate.center_value) + np.abs(monomial_row(disp)) @ np.abs(surrogate.coeffs)
    assert np.all(np.abs(box_wide - per_member) <= 1e-15 * terms)


@settings(max_examples=80, deadline=None)
@given(
    box_in_d_dims(),
    st.floats(0.0, 0.99),
    st.lists(st.floats(0.0, 400.0), min_size=1, max_size=4),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.data(),
)
def test_property_iterates_match_dense_weight_step_bitwise(box, gamma, betas, scale, data):
    # The plan weighs only the moves that stay in the box and sums each
    # member's weights with one bincount; every iterate and sup delta are
    # the bytes of the former dense-weight step from the same V_j.
    _, n, actions = box
    rhat = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=n.size, max_size=n.size)))
    iterates, deltas, _ = fixed_point_iterates(rhat, n, actions, gamma, DrawnBetas(tuple(betas)), len(betas))
    for v, v_next, delta, beta in zip(iterates, iterates[1:], deltas, betas):
        oracle, oracle_delta = dense_weight_step(v, iterates[0], n, actions, gamma, beta)
        assert v_next.tobytes() == oracle.tobytes()
        assert delta == oracle_delta


@settings(max_examples=150, deadline=None)
@given(
    box_in_d_dims(),
    st.one_of(st.just(0.0), st.floats(0.0, 0.99, exclude_max=True)),
    st.integers(0, 25),
    st.sampled_from(["standard-log", "inverse-log"]),
    st.floats(0.05, 5.0),
    st.one_of(st.sampled_from([None, 1, _BLOCK // 2, _BLOCK, _BLOCK + 3, 2 * _BLOCK]), st.integers(1, 25)),
    st.data(),
)
def test_property_fixed_point_matches_stepwise_oracle_bitwise(box, gamma, max_j, kind, t0, stop, data):
    # The iterate stack and the once-per-block convergence test give the
    # bytes of the loop that tested after every step.  tol_v comes from the
    # oracle's own history: just above step ``stop``'s delta, so a call stops
    # there or at an earlier, smaller delta (step 1, mid-block, a block's
    # last step), or at the smallest delta, which no step beats (never).
    _, n, actions = box
    rhat = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n.size, max_size=n.size)))
    args = (rhat, n, actions, gamma, CoolingSchedule(kind, t0=t0))
    oracle_iterates = []
    _, full_history, _ = stepwise_annealed_map(*args, max_j, 0.0, oracle_iterates)
    iterates, deltas, _ = fixed_point_iterates(*args, max_j)
    assert [v.tobytes() for v in iterates] == [v.tobytes() for v in oracle_iterates]
    assert deltas == full_history
    if stop is not None and stop <= max_j:
        tol_v = float(np.nextafter(full_history[stop - 1], np.inf))
    else:
        tol_v = min(full_history, default=0.0) or 5e-324  # a zero delta stops even the smallest tol_v
    v, history, converged = stepwise_annealed_map(*args, max_j, tol_v)
    table = value_fixed_point(*args, tol_v=tol_v, max_j=max_j)
    assert table.values.tobytes() == v.tobytes()
    assert (table.history, table.iterations, table.converged) == (history, len(history), converged)


def test_move_plan_is_read_only_and_shared_by_same_shape_boxes():
    grid = ParameterGrid(mins=(0.0, 0.0), maxs=(1.0, 1.0), steps=(0.1, 0.1))
    actions = ActionSet(2, {1})
    plan = _box_plan(make_neighborhood(grid, center=(2, 3), radii=(1, 2)), actions)
    assert _box_plan(make_neighborhood(grid, center=(7, 6), radii=(1, 2)), ActionSet(2, {1})) is plan
    assert _box_plan(make_neighborhood(grid, center=(0, 6), radii=(1, 2)), actions) is not plan  # clipped
    assert _box_plan(make_neighborhood(grid, center=(2, 3), radii=(1, 2)), ActionSet(2)) is not plan
    # Member by member: entry bounds[i] is member i's stay (move 0), and its
    # row is its targets in move order with the last one repeated.
    stays = np.arange(plan.size)
    np.testing.assert_array_equal(plan.frm[plan.bounds[:-1]], stays)
    np.testing.assert_array_equal(plan.to[plan.bounds[:-1]], stays)
    np.testing.assert_array_equal(plan.entries[plan.bounds[:-1]], stays * len(actions.moves))
    assert np.all(np.diff(plan.frm) >= 0)
    for i, row in enumerate(plan.rows):
        targets = plan.to[plan.bounds[i] : plan.bounds[i + 1]].tolist()
        assert row == tuple(targets + targets[-1:])
    # The walks read the plan of a box covering the whole grid: one cache entry serves both.
    whole = _box_plan(make_neighborhood(grid, center=(5, 5), radii=(5, 5)), actions)
    walk_rows = _grid_rows(grid, actions, np.zeros(whole.size))
    assert len(walk_rows) == len(whole.rows) and all(r is q for (r, _, _), q in zip(walk_rows, whole.rows))
    for name in ("frm", "to", "entries", "bounds", "at"):
        array = getattr(plan, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@settings(max_examples=150, deadline=None)
@given(
    box_in_d_dims(),
    st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    st.one_of(st.just(400.0), st.floats(0.0, 400.0)),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.data(),
)
def test_property_mc_estimate_matches_dense_kernel_oracle(box, gamma, beta, n_walks, horizon, seed, dyadic, data):
    # The walks sample the move stencil's rows directly; every draw picks
    # the target the dense kernel's compressed rows pick, so estimates and
    # standard errors agree bitwise.  beta up to 400 underflows the weights
    # of uphill moves, and the empty action set freezes every dimension.
    _, n, actions = box
    scale = data.draw(st.sampled_from([1.0, 10.0, 50.0]))
    rhat = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=n.size, max_size=n.size)))
    generators = mock.patch("numpy.random.default_rng", _DyadicGenerator) if dyadic else contextlib.nullcontext()
    with generators:
        est, se = mc_value_estimate(rhat, n, actions, gamma, beta, n_walks, horizon, seed)
        oracle_est, oracle_se = oracle_mc_estimate(rhat, n, actions, gamma, beta, n_walks, horizon, seed)
    assert est.tobytes() == oracle_est.tobytes()
    assert se.tobytes() == oracle_se.tobytes()
