"""Metropolis transition kernels on grid neighborhoods and random walks.

A row of the kernel assigns weight ``exp(-beta * max(v(target) - v(here), 0))``
to every reachable target (one grid step along a changeable dimension, or
stay, which always carries weight 1) and normalizes over the targets that lie
inside the neighborhood.  Moves that would exit the neighborhood are simply
excluded from the normalization.

Both the box kernels and the hitting-time walks read the targets from one
move plan, ``_MovePlan``: the moves that stay in a box, built once per box
shape and set of moves and cached, so boxes of one shape share it.
The value fixed point and its Monte-Carlo walks weigh the plan's moves
directly (``_move_weights``, the one weight rule); no m x m kernel is
built.  A box's move weights are exponentiated for the whole box at once
with numpy; a walk runs on the whole grid as one box, one step at a time,
and weighs a row's targets with ``math.exp`` in move order, from each
target's rise max(v(target) - v(here), 0) computed once per call, so its
steps do not depend on numpy's vectorised exp.  A box's values are one
float array in ``Neighborhood.members`` order.
``CoolingSchedule`` is the one cooling rule, shared by the walks and the
value fixed point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import median

import numpy as np

from .grid import ActionSet, GridPoint, Neighborhood, ParameterGrid, make_neighborhood

__all__ = [
    "CoolingSchedule",
    "NoUniqueArgmin",
    "WalkStatistics",
    "hitting_time_experiment",
]


class NoUniqueArgmin(ValueError):
    """The values tie at their minimum, so a hitting-time walk has no target."""


@dataclass(frozen=True)
class CoolingSchedule:
    """Inverse-temperature sequence beta_j for the annealed kernel.

    "standard-log" is log(2 + j) / t0, which cools (grows) with j as in
    conventional annealing.  "inverse-log" is 1 / (t0 * log(2 + j)), which
    heats instead; it is kept selectable so the difference is testable.
    """

    kind: str = "standard-log"
    t0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("standard-log", "inverse-log"):
            raise ValueError(f"unknown cooling schedule kind {self.kind!r}")
        if self.t0 <= 0.0:
            raise ValueError("temperature scale t0 must be positive")

    def beta(self, j: int) -> float:
        if self.kind == "standard-log":
            return math.log(2.0 + j) / self.t0
        return 1.0 / (self.t0 * math.log(2.0 + j))


#: Move plans kept at once, one per (box shape, moves); a plan is kilobytes.
_PLANS = 128


@dataclass(frozen=True)
class _MovePlan:
    """Where each in-box move leads, for every box of one shape.

    Members are the box's cells in C (lexicographic) order, so a move's
    target is a fixed offset in that order, and the plan depends on the box
    shape and the moves but never on the values or the box's centre.  Only
    the moves that stay in the box are listed, in move-major order (every
    member's move 0, then every member's move 1, ...): ``frm`` is the member
    a move starts from, ``to`` the member it leads to, and ``entries`` its
    position in a flat (moves, size) array.  ``k`` is the largest offset,
    the half-bandwidth of I - gamma P; ``at`` is where each move's entry
    sits in the flat column-major LAPACK band storage of shape
    (3k + 1, size), and ``diagonal`` where each member's diagonal entry
    sits.  Every array is read-only.
    """

    size: int
    frm: np.ndarray
    to: np.ndarray
    entries: np.ndarray
    k: int
    at: np.ndarray
    diagonal: np.ndarray


@functools.lru_cache(maxsize=_PLANS)
def _move_plan(shape: tuple[int, ...], moves: tuple[GridPoint, ...]) -> _MovePlan:
    """The ``_MovePlan`` of a box of ``shape`` under ``moves``; cached."""
    coords = np.indices(shape).reshape(len(shape), 1, -1)
    size = coords.shape[2]
    # Column n of ``moved`` is move n // size taken from member n % size.
    moved = (coords + np.array(moves).T[:, :, None]).reshape(len(shape), -1)
    entries = np.flatnonzero(np.all((moved >= 0) & (moved < np.array(shape)[:, None]), axis=0))
    frm = entries % size
    to = np.ravel_multi_index(tuple(moved[:, entries]), shape)
    k = int(np.max(np.abs(to - frm)))
    height = 3 * k + 1
    # Entry (i, j) of the matrix sits at row 2k + i - j of column j.
    at = 2 * k + frm - to + to * height
    diagonal = 2 * k + np.arange(size) * height
    for a in (frm, to, entries, at, diagonal):
        a.flags.writeable = False
    return _MovePlan(size, frm, to, entries, k, at, diagonal)


def _box_plan(neighborhood: Neighborhood, actions: ActionSet) -> _MovePlan:
    """The cached ``_MovePlan`` of a box's shape and an action set's moves."""
    shape = tuple(b - a + 1 for a, b in zip(neighborhood.lo, neighborhood.hi))
    return _move_plan(shape, actions.moves)


def _move_weights(v: np.ndarray, plan: _MovePlan, beta: float) -> np.ndarray:
    """Normalized weights of a plan's moves from member values ``v``.

    Entry n is the probability that move n of the plan is taken from its
    member ``plan.frm[n]``: exp(-beta * max(v[to] - v[frm], 0)) over the
    member's sum.  Each member's weights are summed in move order from
    0.0, as a walk step sums a row, so the normalization is bitwise the
    step's, given the same exp.
    """
    w = v[plan.to] - v[plan.frm]
    np.maximum(w, 0.0, out=w)
    w *= -beta
    np.exp(w, out=w)
    w /= np.bincount(plan.frm, weights=w, minlength=plan.size)[plan.frm]
    return w


#: Uniforms a walk fetches from its generator at a time.  A block holds the
#: same doubles as that many scalar ``random()`` calls, so the size changes
#: no walk; it bounds what a long walk holds in memory.
_DRAW_BLOCK = 256


def _uniforms(rng):
    """The generator's scalar ``random()`` draws, fetched in blocks."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def _grid_rows(grid: ParameterGrid, actions: ActionSet, v: list[float]):
    """Per grid node in ``grid.points()`` order, (targets, rises) in move order.

    Targets are the node's in-grid targets, as positions in that same
    order: the move plan of the whole grid taken as one box.  The rise to a
    target is max(v[target] - v[node], 0.0), the exponent a step scales by
    -beta.
    """
    whole = make_neighborhood(grid, (0,) * grid.d, [n - 1 for n in grid.shape])
    plan = _box_plan(whole, actions)
    rows = [[] for _ in range(plan.size)]
    for i, j in zip(plan.frm.tolist(), plan.to.tolist()):
        rows[i].append(j)
    return [(row, [max(v[j] - v[i], 0.0) for j in row]) for i, row in enumerate(rows)]


@dataclass
class WalkStatistics:
    """First-passage times of seeded walks toward the grid argmin."""

    mode: str
    steps: list[int]
    hits: list[bool]
    target: GridPoint
    path: list[GridPoint]  # the points walk 0 visited, start included

    @property
    def mean_steps(self) -> float:
        return float(np.mean(self.steps))

    @property
    def median_steps(self) -> float:
        return float(median(self.steps))


def hitting_time_experiment(
    values: dict[GridPoint, float],
    grid: ParameterGrid,
    start: GridPoint,
    mode: str,
    n_walks: int,
    seed: int,
    max_steps: int,
    t0: float,
) -> WalkStatistics:
    """First-passage times to the unique grid argmin under log cooling.

    mode "free" walks with every dimension changeable; mode "fixed" freezes
    one dimension at a time, dimension 0 first, switching the frozen
    dimension every max(grid.shape) steps.  For 1-d grids both modes
    coincide.  Walks that never hit within max_steps are censored at
    max_steps with hit=False.  The path of walk 0 is kept for path exports.
    ``values`` maps every grid node to its value; a missing one raises
    KeyError before any walk starts.  Step t cools by ``CoolingSchedule``.
    """
    if mode not in ("free", "fixed"):
        raise ValueError(f"unknown walk mode {mode!r}")
    start = grid.require(start)
    points = list(grid.points())
    missing = [p for p in points if p not in values]
    if missing:
        raise KeyError(f"value table missing {len(missing)} grid nodes, e.g. {missing[0]}")
    ordered = sorted(values.items(), key=lambda kv: (kv[1], kv[0]))
    target, best = ordered[0]
    if len(ordered) > 1 and ordered[1][1] == best:
        raise NoUniqueArgmin("objective has no unique global argmin on the grid")

    d = grid.d
    switch_every = max(grid.shape)  # the longest grid side
    if mode == "fixed" and d >= 2:
        phases = [ActionSet(d, frozenset(range(d)) - {k}) for k in range(d)]
    else:
        phases = [ActionSet(d)]
    v = [values[p] for p in points]
    tables = [_grid_rows(grid, actions, v) for actions in phases]
    index = {p: k for k, p in enumerate(points)}
    goal = index.get(target)  # None, never hit, for an argmin off the grid
    beta_at = CoolingSchedule(t0=t0).beta

    steps_out, hits, path = [], [], [start]
    for walk_id in range(n_walks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(walk_id,)))
        draws = _uniforms(rng)
        i = index[start]
        hit = i == goal
        t = 0
        while not hit and t < max_steps:
            row, rises = tables[(t // switch_every) % len(tables)][i]
            beta = beta_at(t)
            weights = [math.exp(-beta * r) for r in rises]
            u = next(draws) * sum(weights)
            acc = 0.0
            # Inverse-CDF scan; if u rounds up to the total, the last target.
            for i, w in zip(row, weights):
                acc += w
                if u < acc:
                    break
            t += 1
            hit = i == goal
            if walk_id == 0:
                path.append(points[i])
        steps_out.append(t)
        hits.append(hit)
    return WalkStatistics(mode=mode, steps=steps_out, hits=hits, target=target, path=path)
