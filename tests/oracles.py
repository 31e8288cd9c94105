"""Reference implementations the tests compare the program against.

Each is a slow or dense form of something the program computes another
way: the m x m Metropolis kernel of a box and its truncated discounted
power sum, the kernel and the hitting-time walk taken one row at a time,
the fixed-point step as a dense solve and as the dense-weight band step
the move plan replaced, the fixed-point loop that tested convergence after
every step, a generator stand-in with dyadic draws, and the
local argmins of a 1-d table.  ``mc_value_estimate`` checks the value
layer by Monte Carlo: its walks sample the rows of the box's move plan,
and ``oracle_mc_estimate`` drives the same walks from the dense kernel.
The column strip is a Stokes strip far wider than any blade's own, the
penalized system is the whole channel's matrix for one sparse LU, the
dense G is the capacitance set-up's A0^-1 on its strip faces, scattered
whole, and the unit table is its H from whole-channel solves of unit
columns.  None of them is part of ``mesopt``: the program builds no m x m
kernel, solves in no column strip, factors no penalized whole-channel
matrix and stores no G.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mesopt._solver import _matrix
from mesopt.grid import ActionSet, Neighborhood
from mesopt.metropolis import _box_plan, _minus_betas
from mesopt.stokes import _chord_coordinate, _face_x
from mesopt.value import _band_failed, _band_solve, _box_values, _lapack_dgbsv


def _move_weights(v: np.ndarray, plan, beta: float) -> np.ndarray:
    """Normalized weights of a plan's moves from member values ``v``.

    Entry n is the probability that move n of the plan is taken from its
    member ``plan.frm[n]``: exp(-beta * max(v[to] - v[frm], 0)) over the
    member's sum.  Each member's weights are summed in move order from
    0.0, as a walk step sums a row, so the normalization is bitwise the
    step's, given the same exp.  It is the weighing of one value
    fixed-point step, ``value._annealed_map``, taken out of its loop.
    """
    w = v[plan.to] - v[plan.frm]
    np.maximum(w, 0.0, out=w)
    w *= -beta
    np.exp(w, out=w)
    w /= np.bincount(plan.frm, weights=w, minlength=plan.size)[plan.frm]
    return w


def transition_matrix(values, neighborhood, actions, beta):
    """The row-stochastic kernel over a neighborhood's members, in member order.

    The value step's weighing (``_move_weights``) scattered on the box's
    cached move plan.  ``values`` holds one value per member; ``beta`` is the inverse
    temperature, and beta = 0 gives the uniform kernel on the allowed
    targets.
    """
    if beta < 0.0:
        raise ValueError(f"inverse temperature must be >= 0 (got {beta})")
    v = _box_values(values, neighborhood)
    plan = _box_plan(neighborhood, actions)
    matrix = np.zeros((v.size, v.size))
    matrix[plan.frm, plan.to] = _move_weights(v, plan, beta)
    return matrix


def discounted_power_sum(matrix, rhat, gamma, horizon):
    """sum_{t=0}^{horizon} gamma^t P^t rhat, the truncated discounted sum.

    It is what a horizon-step walk accumulates on average, so it is the
    exact oracle for ``mc_value_estimate``.
    """
    acc = rhat.astype(float).copy()
    y = rhat.astype(float)
    g = 1.0
    for _ in range(horizon):
        y = matrix @ y
        g *= gamma
        acc += g * y
    return acc


def _row_weights(values, state, actions, beta, contains, exp=math.exp):
    """(targets, weights) for one kernel row; stay is always a target.

    The row-by-row definition of the kernel, the oracle for both the box
    kernels and the table-driven walk.
    """
    v_here = values[state]
    targets, weights = [], []
    for move in actions.moves:
        target = tuple(s + m for s, m in zip(state, move))
        if not contains(target):
            continue
        dv = values[target] - v_here
        weights.append(exp(-beta * max(dv, 0.0)))
        targets.append(target)
    return targets, weights


def _running_total(weights):
    """The weights added one by one in order, as the scan's running sum ends.

    ``sum`` compensates its rounding from Python 3.12 on, so it may differ.
    """
    total = 0.0
    for w in weights:
        total += w
    return total


def _rows_from_row_weights(values, n, actions, beta, exp=math.exp):
    """The kernel built one row at a time, as a walk step weighs it."""
    index = {s: k for k, s in enumerate(n.members)}
    matrix = np.zeros((n.size, n.size))
    for k, state in enumerate(n.members):
        targets, weights = _row_weights(values, state, actions, beta, n.contains, exp)
        total = _running_total(weights)
        for target, w in zip(targets, weights):
            matrix[k, index[target]] = w / total
    return matrix


def _lazy_step(values, grid, state, actions, beta, rng):
    """One Metropolis step without materializing the full kernel."""
    targets, weights = _row_weights(values, state, actions, beta, grid.contains)
    total = _running_total(weights)
    u = rng.random() * total
    acc = 0.0
    for target, w in zip(targets, weights):
        acc += w
        if u < acc:
            return target
    return targets[-1]


def _reference_walks(values, grid, start, mode, n_walks, seed, max_steps, t0):
    """(steps, hits, walk-0 path) of the walks taken one ``_lazy_step`` at a time."""
    target = min(values, key=lambda p: (values[p], p))
    d = grid.d
    switch_every = max(grid.shape)
    if mode == "fixed" and d >= 2:
        phases = [ActionSet(d, frozenset(range(d)) - {k}) for k in range(d)]
    else:
        phases = [ActionSet(d)]
    steps_out, hits, path = [], [], [start]
    for walk_id in range(n_walks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(walk_id,)))
        state = start
        hit = state == target
        t = 0
        while not hit and t < max_steps:
            actions = phases[(t // switch_every) % len(phases)]
            beta = math.log(2.0 + t) / t0
            state = _lazy_step(values, grid, state, actions, beta, rng)
            t += 1
            hit = state == target
            if walk_id == 0:
                path.append(state)
        steps_out.append(t)
        hits.append(hit)
    return steps_out, hits, path


def dense_step(v, rhat, n, actions, gamma, beta):
    """One fixed-point step as a dense solve on the whole kernel: the band solve's oracle."""
    return np.linalg.solve(np.eye(n.size) - gamma * transition_matrix(v, n, actions, beta), rhat)


def _dense_stencil(n, actions):
    """(cols, valid), each (moves, size): where each move leads from each member.

    The stencil the fixed point read before its move plan: every move from
    every member, an invalid one pointing back at its member.
    """
    shape = np.array([b - a + 1 for a, b in zip(n.lo, n.hi)])
    coords = np.indices(shape).reshape(len(shape), -1)
    here = np.arange(coords.shape[1])
    cols, valid = [], []
    for move in actions.moves:
        target = coords + np.array(move)[:, None]
        inside = np.all((target >= 0) & (target < shape[:, None]), axis=0)
        cols.append(np.where(inside, np.ravel_multi_index(target, shape, mode="clip"), here))
        valid.append(inside)
    return np.array(cols), np.array(valid)


def dense_weight_step(v, rhat, n, actions, gamma, beta):
    """One fixed-point step as the value layer took it before its move plan.

    Dense (moves, size) weights masked with ``np.where``, each member's
    weights summed over the moves in move order, scattered into a zeroed
    band with 1 added on the diagonal, and one ``dgbsv``: the bitwise
    oracle of the plan-driven step.  Returns (V_{j+1}, sup delta).
    """
    cols, valid = _dense_stencil(n, actions)
    m = v.size
    here = np.arange(m)
    weights = np.where(valid, np.exp(-beta * np.maximum(v[cols] - v, 0.0)), 0.0)
    total = weights[0].copy()
    for w in weights[1:]:
        total += w
    weights = weights / total
    k = int(np.max(np.abs(cols - here)))
    height = 3 * k + 1
    entries = np.flatnonzero(valid)
    band = np.zeros(height * m)
    band[(2 * k + here - cols + cols * height).ravel()[entries]] = -gamma * weights.ravel()[entries]
    band[2 * k + here * height] += 1.0
    v_next = _band_solve(band.reshape(m, height).T, k, rhat)
    return v_next, float(np.max(np.abs(v_next - v)))


def stepwise_annealed_map(rhat, neighborhood, actions, gamma, schedule, n_steps, tol_v, iterates=None):
    """The fixed-point loop as it was before the iterate stack: the bitwise oracle.

    One new array per iterate, and the sup-norm change taken and tested
    after every step, so a failed solve raises at once.  Returns (the last
    iterate, the per-step sup deltas, whether it stopped below tol_v) and
    appends V_0, V_1, ... to ``iterates`` when one is given.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount gamma must be in [0, 1) (got {gamma})")
    if n_steps < 0:
        raise ValueError(f"the step count must be >= 0 (got {n_steps})")
    rhat = _box_values(rhat, neighborhood)
    plan = _box_plan(neighborhood, actions)
    m, k, frm, to, at = plan.size, plan.k, plan.frm, plan.to, plan.at
    minus_betas = _minus_betas(schedule, n_steps, 0)
    dgbsv = _lapack_dgbsv() if minus_betas else None  # no step, no scipy
    diagonal = slice(2 * k, None, 3 * k + 1)  # row 2k of the flat band storage
    v, deltas = rhat, []
    if iterates is not None:
        iterates.append(v)
    for nb in minus_betas:
        # Each move's weight exp(-beta_j * max(rise, 0)) over its member's
        # sum, taken in move order as a walk step sums a row.
        w = v[to] - v[frm]
        np.maximum(w, 0.0, out=w)
        w *= nb
        np.exp(w, out=w)
        w /= np.bincount(frm, weights=w, minlength=m)[frm]
        w *= -gamma
        band = np.zeros(m * (3 * k + 1))
        band[at] = w
        band[diagonal] += 1.0
        _, _, v_next, info = dgbsv(k, k, band.reshape(m, -1).T, rhat, overwrite_ab=1)
        if info != 0:
            raise _band_failed(info)
        delta = v_next - v
        delta = float(np.maximum.reduce(np.abs(delta, out=delta)))
        deltas.append(delta)
        v = v_next
        if iterates is not None:
            iterates.append(v)
        if delta < tol_v:
            return v, deltas, True
    return v, deltas, False


def mc_value_estimate(
    rhat: np.ndarray,
    neighborhood: Neighborhood,
    actions: ActionSet,
    gamma: float,
    beta: float,
    n_walks: int,
    horizon: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of sum_{t=0}^{horizon} gamma^t Rhat(X_t) per member.

    Walks follow the fixed kernel built from Rhat at the given inverse
    temperature (beta >= 0), one inverse-CDF draw per step over a row's
    positive-weight targets in member order.  Deterministic for a fixed
    seed.  Returns the estimates and their standard errors.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    rhat = _box_values(rhat, neighborhood)
    m = rhat.size
    if beta < 0.0:
        raise ValueError(f"inverse temperature must be >= 0 (got {beta})")
    if gamma == 0.0:
        return rhat, np.zeros(m)

    # Per member (a row), its positive-weight moves by target member, then
    # the zero-weight ones (the moves that leave the box point back at
    # their member), so that no draw, not even u = 0.0, picks one of those;
    # from the last positive weight on the cumulative weight is 1.0, so a
    # draw u < 1 never runs past it.
    plan = _box_plan(neighborhood, actions)
    n_moves = len(actions.moves)
    cols = np.repeat(np.arange(m)[:, None], n_moves, axis=1)
    np.put(cols, plan.entries, plan.to)
    weights = np.zeros((m, n_moves))
    np.put(weights, plan.entries, _move_weights(rhat, plan, beta))
    order = np.lexsort((cols, weights == 0.0), axis=1)
    targets = np.take_along_axis(cols, order, axis=1)
    weights = np.take_along_axis(weights, order, axis=1)
    cumw = np.cumsum(weights, axis=1)
    cumw[np.arange(cumw.shape[1]) >= np.count_nonzero(weights, axis=1)[:, None] - 1] = 1.0
    rng = np.random.default_rng(seed)

    # All walks for all start states advance in lockstep.
    pos = np.repeat(np.arange(m), n_walks)
    totals = rhat[pos].copy()
    g = 1.0
    for _ in range(horizon):
        u = rng.random(pos.size)
        pos = targets[pos, (cumw[pos] < u[:, None]).sum(axis=1)]
        g *= gamma
        totals += g * rhat[pos]

    per_state = totals.reshape(m, n_walks)
    se = per_state.std(axis=1, ddof=1) / math.sqrt(n_walks) if n_walks > 1 else np.zeros(m)
    return per_state.mean(axis=1), se


def _compressed_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (targets, cumulative weights) over the row's nonzero columns.

    The oracle sampler: it reads the dense kernel one row at a time.
    Targets stay in column order; short rows are padded with their last
    target, and the last cumulative weight of every row is set to 1.0 so a
    uniform draw u < 1 never overruns it.
    """
    m = matrix.shape[0]
    width = max(int((row > 0).sum()) for row in matrix)
    targets = np.zeros((m, width), dtype=np.intp)
    cumw = np.ones((m, width))
    for k, row in enumerate(matrix):
        idx = np.flatnonzero(row)
        targets[k, : idx.size] = idx
        targets[k, idx.size :] = idx[-1]
        cumw[k, : idx.size] = np.cumsum(row[idx])
        cumw[k, idx.size - 1 :] = 1.0
    return targets, cumw


def oracle_mc_estimate(rhat, n, actions, gamma, beta, n_walks, horizon, seed):
    """``mc_value_estimate`` driven by the dense kernel and the oracle sampler."""
    m = n.size
    if gamma == 0.0:
        return rhat.copy(), np.zeros(m)
    targets, cumw = _compressed_rows(transition_matrix(rhat, n, actions, beta))
    rng = np.random.default_rng(seed)
    pos = np.repeat(np.arange(m), n_walks)
    totals = rhat[pos].copy()
    g = 1.0
    for _ in range(horizon):
        u = rng.random(pos.shape[0])
        pos = targets[pos, (cumw[pos] < u[:, None]).sum(axis=1)]
        g *= gamma
        totals += g * rhat[pos]
    per_state = totals.reshape(m, n_walks)
    se = per_state.std(axis=1, ddof=1) / math.sqrt(n_walks) if n_walks > 1 else np.zeros(m)
    return per_state.mean(axis=1), se


class _DyadicGenerator:
    """Generator stand-in whose doubles are multiples of 1/8, 0.0 included.

    Scalar and block draws come from one unbounded stream, as numpy's do.
    Such a draw times a total of whole weights often lands exactly on a
    cumulative weight, the case that tells ``<`` from ``<=`` in a scan, and
    a draw u = 0.0 tells a row whose first cumulative weight is that of a
    zero-weight move from one that starts at its first positive weight.
    """

    def __init__(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        self._draws = itertools.chain.from_iterable(
            (rng.integers(0, 8, size=256) / 8).tolist() for _ in itertools.count()
        )

    def random(self, size=None):
        if size is None:
            return next(self._draws)
        return np.array(list(itertools.islice(self._draws, size)))


def _local_argmins(vals):
    """Indices of a 1-d table's local minima, each end and plateaus included."""
    return [
        i
        for i in range(len(vals))
        if (i == 0 or vals[i] <= vals[i - 1])
        and (i == len(vals) - 1 or vals[i] <= vals[i + 1])
    ]


def column_strip(config):
    """Cells, (nx, nz), of every column with a face in the chord band plus one on either side.

    It holds every blade's solid faces, so one set-up serves every blade,
    and at 48x24 its strip is too wide for the capacitance solve: the
    tests reach the strip LU through it.
    """
    xu, xw = _face_x(config)
    on_band = _chord_coordinate(config, xu)[1] | _chord_coordinate(config, xw)[1]
    in_strip = np.convolve(on_band, np.ones(3), mode="same") > 0
    return np.repeat(in_strip[:, None], config.nz, axis=1)


def dense_g(setup):
    """G = A0^-1[V, V] of a ``_Capacitance`` set-up, scattered whole from its table.

    The set-up's former G, built one face line of columns at a time with the
    row shift taken mod nz: the bitwise oracle of the set-up's gather ``g``.
    """
    nz = setup.H.shape[1] // 2
    lines, j = np.divmod(setup.V, nz)
    distinct, line_of = np.unique(lines, return_inverse=True)
    H = setup.H[:, :nz]  # the table's first period along the row shift
    G = np.empty((setup.V.size, setup.V.size))
    for k in range(distinct.size):
        cols = line_of == k
        G[:, cols] = H[line_of[:, None], (j[:, None] - j[cols][None, :]) % nz, k]
    return G


def penalized_system(faces, config):
    """A0 plus the penalization K on the solid ``faces``: the channel's whole system, sparse."""
    A0 = _matrix(config.nx, config.nz, config.dx, config.dz)
    d = np.zeros(A0.shape[0])
    d[faces] = config.penalization
    return (A0 + sp.diags(d)).tocsc()


def direct_solve(faces, config, r):
    """The solve of ``penalized_system`` by one sparse LU, set-ups and capacitance aside."""
    return spla.splu(penalized_system(faces, config)).solve(r)


def unit_table(setup):
    """H[:, :nz] of a ``_Capacitance`` set-up from real unit columns through ``_Fourier.solve``.

    One whole-channel unit at row 0 of each face line of V, all solved at
    once and read back on V's lines: H by its definition, which the
    set-up's block-wise build in the Fourier domain must match bit for bit.
    """
    nz = setup.H.shape[1] // 2
    lines = np.unique(setup.V // nz)
    units = np.zeros((setup.A.shape[0], lines.size))
    units[lines * nz, np.arange(lines.size)] = 1.0
    return setup.fourier.solve(units).reshape(-1, nz, lines.size)[lines]


def vector_fourier_solve(fourier, r):
    """A0^-1 r for one vector r through a ``_Fourier`` set-up's LU, with no stacking.

    The rfft along z of r's (3 nx, nz) view, the LU's solve of that one
    column and the irfft: the bitwise oracle of ``_Fourier.solve`` on
    stacked rows or columns.
    """
    nz = fourier.shape[1]
    r_hat = np.fft.rfft(r.reshape(fourier.shape), axis=1)
    x_hat = fourier.lu.solve(r_hat.ravel()).reshape(r_hat.shape)
    return np.fft.irfft(x_hat, n=nz, axis=1).ravel()
