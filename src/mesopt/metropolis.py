"""Metropolis transition kernels on grid neighborhoods and random walks.

A row of the kernel assigns weight ``exp(-beta * max(v(target) - v(here), 0))``
to every reachable target (one grid step along a changeable dimension, or
stay, which always carries weight 1) and normalizes over the targets that lie
inside the neighborhood.  Moves that would exit the neighborhood are simply
excluded from the normalization.

Both the box kernels and the hitting-time walks read the targets from one
move stencil, ``_box_stencil``.  ``transition_matrix`` is the dense m x m
view of a box kernel for checks; the value fixed point and its Monte-Carlo
walks weigh the stencil directly (``_stencil_weights``) and never build it.
A box's move weights are exponentiated for the whole box at once with
numpy; a walk runs on the whole grid as one box, one step at a time, and
weighs a row's targets with ``math.exp`` in move order, so its steps do not
depend on numpy's vectorised exp.  A box's values are one float array in
``Neighborhood.members`` order.
``CoolingSchedule`` is the one cooling rule, shared by the walks and the
value fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median

import numpy as np

from .grid import ActionSet, GridPoint, Neighborhood, ParameterGrid, make_neighborhood

__all__ = [
    "CoolingSchedule",
    "NoUniqueArgmin",
    "transition_matrix",
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


def _box_stencil(neighborhood: Neighborhood, actions: ActionSet):
    """Where each move leads from each member, built once per box.

    Members are the box's cells in C (lexicographic) order, so a move's
    target is a fixed offset in that order, and the stencil depends on the
    box shape and the moves but never on the values.  Returns (cols, valid),
    each of shape (len(actions.moves), size): cols[k, i] is the member that
    move k leads to from member i, valid[k, i] whether it lies in the box
    (an invalid entry points back at member i).
    """
    shape = np.array([b - a + 1 for a, b in zip(neighborhood.lo, neighborhood.hi)])
    coords = np.indices(shape).reshape(len(shape), -1)
    here = np.arange(coords.shape[1])
    cols, valid = [], []
    for move in actions.moves:
        target = coords + np.array(move)[:, None]
        inside = np.all((target >= 0) & (target < shape[:, None]), axis=0)
        cols.append(np.where(inside, np.ravel_multi_index(target, shape, mode="clip"), here))
        valid.append(inside)
    return np.array(cols), np.array(valid)


def _box_values(values, neighborhood: Neighborhood) -> np.ndarray:
    """``values`` as a new float array; it must hold one value per member."""
    v = np.array(values, dtype=float)
    if v.shape != (neighborhood.size,):
        raise ValueError(f"{v.size} values for a box of {neighborhood.size} members")
    return v


def _stencil_weights(v: np.ndarray, stencil, beta: float) -> np.ndarray:
    """Normalized move weights from member values ``v`` on a ``_box_stencil``.

    Shape (moves, size): entry [k, i] is the probability that move k is
    taken from member i, 0 where the move leaves the box.  Bitwise the
    weights a walk step gives a row, given the same exp: they are summed
    in the order of the moves, as a step sums them.
    """
    cols, valid = stencil
    weights = np.where(valid, np.exp(-beta * np.maximum(v[cols] - v, 0.0)), 0.0)
    total = weights[0].copy()
    for w in weights[1:]:
        total += w
    return weights / total


def transition_matrix(
    values: np.ndarray,
    neighborhood: Neighborhood,
    actions: ActionSet,
    beta: float,
) -> np.ndarray:
    """The row-stochastic kernel over a neighborhood's members, in member order.

    ``values`` holds one value per member.  ``beta`` is the inverse
    temperature; beta = 0 gives the uniform kernel on the allowed targets.
    """
    if beta < 0.0:
        raise ValueError(f"inverse temperature must be >= 0 (got {beta})")
    v = _box_values(values, neighborhood)
    stencil = _box_stencil(neighborhood, actions)
    cols, valid = stencil
    matrix = np.zeros((v.size, v.size))
    rows = np.broadcast_to(np.arange(v.size), cols.shape)
    matrix[rows[valid], cols[valid]] = _stencil_weights(v, stencil, beta)[valid]
    return matrix


#: Uniforms a walk fetches from its generator at a time.  A block holds the
#: same doubles as that many scalar ``random()`` calls, so the size changes
#: no walk; it bounds what a long walk holds in memory.
_DRAW_BLOCK = 256


def _uniforms(rng):
    """The generator's scalar ``random()`` draws, fetched in blocks."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def _grid_targets(grid: ParameterGrid, actions: ActionSet) -> list[list[int]]:
    """Per grid node in ``grid.points()`` order, its in-grid targets in move order.

    Targets are positions in that same order: the stencil of the whole grid
    taken as one box.
    """
    whole = make_neighborhood(grid, (0,) * grid.d, [n - 1 for n in grid.shape])
    cols, valid = _box_stencil(whole, actions)
    return [
        [j for j, ok in zip(node_cols, node_valid) if ok]
        for node_cols, node_valid in zip(cols.T.tolist(), valid.T.tolist())
    ]


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
    tables = [_grid_targets(grid, actions) for actions in phases]
    v = [values[p] for p in points]
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
            row = tables[(t // switch_every) % len(tables)][i]
            beta = beta_at(t)
            v_here = v[i]
            weights = [math.exp(-beta * max(v[j] - v_here, 0.0)) for j in row]
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
