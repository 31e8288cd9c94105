"""Value-function estimation on a neighborhood.

The value of a state is the discounted accumulated penalty along a
Metropolis walk whose kernel is itself built from the current value
estimate, so the definition is self-consistent and solved by fixed-point
iteration: V_0 = Rhat, kernel P_j from V_j at inverse temperature beta_j,
V_{j+1} = sum_t gamma^t P_j^t Rhat = (I - gamma P_j)^-1 Rhat.  Each step
evaluates that infinite sum exactly, by one banded linear solve on the
neighborhood's members: a move is a fixed offset in member order, so
I - gamma P_j has as many sub- and super-diagonals as the largest offset,
the stride of the first changeable dimension (11 on an 11 x 11 box, 1 when
only the last dimension changes, 0 when every dimension is frozen).  Where
each move's entry sits in band storage comes with the box's cached move
plan, so a step weighs only the moves that stay in the box, scatters them
and solves.  No horizon is chosen and no tail is closed, and every iterate
is a convex combination of Rhat scaled by 1 / (1 - gamma), so it lies
inside [min Rhat, max Rhat] / (1 - gamma).  A Monte-Carlo estimator of the
horizon-truncated sum is kept for cross-checking; its walks sample the
rows of the same move plan, so the program builds no m x m kernel.  Rhat,
the iterates and the estimates are float arrays in
``Neighborhood.members`` order.  ``CoolingSchedule`` lives in
``metropolis`` and is re-exported here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbsv

from .grid import ActionSet, GridPoint, Neighborhood
from .metropolis import CoolingSchedule, _box_plan, _move_weights

__all__ = [
    "CoolingSchedule",
    "ValueTable",
    "value_fixed_point",
    "fixed_point_iterates",
    "mc_value_estimate",
    "argmin_value",
]


@dataclass
class ValueTable:
    """Converged (or truncated) values of a box's members, in member order."""

    members: tuple[GridPoint, ...]
    values: np.ndarray
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def _box_values(values, neighborhood: Neighborhood) -> np.ndarray:
    """``values`` as a new float array; it must hold one value per member."""
    v = np.array(values, dtype=float)
    if v.shape != (neighborhood.size,):
        raise ValueError(f"{v.size} values for a box of {neighborhood.size} members")
    return v


def _band_solve(band: np.ndarray, k: int, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for A with k sub- and k super-diagonals (LAPACK ``dgbsv``).

    ``band`` is A in LAPACK band storage, shape (3k + 1, n): entry (i, j)
    sits at row 2k + i - j, and the first k rows are room for the fill-in
    of partial pivoting; it is overwritten.  A singular A raises
    ``np.linalg.LinAlgError``.
    """
    _, _, x, info = dgbsv(k, k, band, rhs, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"band solve failed (LAPACK dgbsv info {info})")
    return x


def _annealed_map(rhat, neighborhood, actions, gamma, schedule):
    """The fixed-point map shared by both entry points, validated up front.

    Returns (V_0 = Rhat, steps), where steps yields (beta_j, V_{j+1}, sup
    delta_j) for j = 0, 1, ...: each step weighs the box's moves from V_j
    at inverse temperature beta_j and solves (I - gamma P_j) V_{j+1} = Rhat.
    Every move is a fixed offset in member order, so I - gamma P_j is a band
    matrix whose half-bandwidth k is the largest offset; the box's cached
    move plan says where each move's entry sits in band storage.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount gamma must be in [0, 1) (got {gamma})")
    rhat = _box_values(rhat, neighborhood)
    plan = _box_plan(neighborhood, actions)
    m, k = plan.size, plan.k

    def steps():
        v = rhat
        for j in itertools.count():
            beta = schedule.beta(j)
            # The plan's first m entries are the stays, the diagonal.
            w = _move_weights(v, plan, beta)
            w *= -gamma
            w[:m] += 1.0
            band = np.zeros(m * (3 * k + 1))
            band[plan.at] = w
            v_next = _band_solve(band.reshape(m, -1).T, k, rhat)
            delta = v_next - v
            yield beta, v_next, float(np.maximum.reduce(np.abs(delta, out=delta)))
            v = v_next

    return rhat, steps()


def value_fixed_point(
    rhat: np.ndarray,
    neighborhood: Neighborhood,
    actions: ActionSet,
    gamma: float,
    schedule: CoolingSchedule,
    tol_v: float,
    max_j: int,
) -> ValueTable:
    """Self-consistent value estimate on a neighborhood.

    Starts from V_0 = Rhat, rebuilds the kernel from the current iterate at
    each step's inverse temperature, and stops when the sup-norm change
    drops below tol_v or max_j iterations have run (converged=False then).
    """
    if tol_v <= 0.0:
        raise ValueError("tol_v must be positive")
    v, steps = _annealed_map(rhat, neighborhood, actions, gamma, schedule)
    history, converged = [], False
    for _, v, delta in itertools.islice(steps, max_j):
        history.append(delta)
        if delta < tol_v:
            converged = True
            break
    return ValueTable(neighborhood.members, v, len(history), converged, history)


def fixed_point_iterates(
    rhat: np.ndarray,
    neighborhood: Neighborhood,
    actions: ActionSet,
    gamma: float,
    schedule: CoolingSchedule,
    n_iters: int,
):
    """All iterates V_0 .. V_{n_iters} plus per-step sup deltas and betas.

    Same map as value_fixed_point but runs a fixed number of iterations and
    keeps every iterate, for the 1-d demonstration exports.
    """
    rhat, steps = _annealed_map(rhat, neighborhood, actions, gamma, schedule)
    steps = list(itertools.islice(steps, n_iters))
    iterates = [rhat] + [v for _, v, _ in steps]
    deltas = [delta for _, _, delta in steps]
    betas = [beta for beta, _, _ in steps]
    return iterates, deltas, betas


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
    cols = np.tile(np.arange(m), n_moves)
    cols[plan.entries] = plan.to
    weights = np.zeros(n_moves * m)
    weights[plan.entries] = _move_weights(rhat, plan, beta)
    cols, weights = cols.reshape(n_moves, m), weights.reshape(n_moves, m)
    order = np.lexsort((cols, weights == 0.0), axis=0)
    targets = np.take_along_axis(cols, order, axis=0).T
    weights = np.take_along_axis(weights, order, axis=0).T
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


def argmin_value(table: ValueTable) -> GridPoint:
    """Member with the smallest value; ties go to the first, the smallest multi-index."""
    return table.members[int(np.argmin(table.values))]
