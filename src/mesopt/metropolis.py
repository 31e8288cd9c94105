"""Metropolis transition kernels on grid neighborhoods and random walks.

A row of the kernel assigns weight ``exp(-beta * max(v(target) - v(here), 0))``
to every reachable target (one grid step along a changeable dimension, or
stay, which always carries weight 1) and normalizes over the targets that lie
inside the neighborhood.  Moves that would exit the neighborhood are simply
excluded from the normalization.

The value fixed point and the hitting-time walks read their targets from
one move plan, ``_MovePlan``: the moves that stay in a box, member by
member and each member's in move order, built once per box shape and set
of moves and kept in one cache, so boxes of one shape share it.  The
value fixed point weighs the plan's moves directly, for the whole box at
once with numpy; no m x m kernel is built.  A hitting-time walk runs on
the whole grid as one box and, once per call and action set, builds
each node's step table, ``_grid_rows``: its targets, the row of that
box's plan (its ``rows``); its uphill moves, (position, rise) for each
move whose rise max(v(target) - v(here), 0) is positive; and its
weights when nothing rises, one 1.0 per move.  It runs one phase at a
time, the steps that share an action set, reading that phase's
-beta(t) from one cached block, ``_minus_betas``, that every walk and
the value fixed point share; a step copies its row's ones, weighs each
uphill move with ``math.exp`` (exp(+-0.0) is exactly 1.0, so every
other move keeps its 1.0 without the call), and bisects the row's
running sums at its draw times their last, so its steps, those of the
row-by-row scan, depend neither on numpy's vectorised exp nor on how
``sum`` rounds.  A box's values are one float array in
``Neighborhood.members`` order.  ``CoolingSchedule``, the one cooling
rule of the walks and the value fixed point, has its one import path here.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from .grid import ActionSet, GridPoint, Neighborhood, ParameterGrid

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


#: Move plans kept at once, one per (box shape, moves); a plan holds about
#: 210 bytes per member (26 KB for an 11 x 11 box).
_PLANS = 128


@dataclass(frozen=True)
class _MovePlan:
    """Where each in-box move leads, for every box of one shape.

    Members are the box's cells in C (lexicographic) order, so a move's
    target is a fixed offset in that order, and the plan depends on the box
    shape and the moves but never on the values or the box's centre.  Only
    the moves that stay in the box are listed, member by member and each
    member's in move order: ``frm`` is the member a move starts from and
    ``to`` the member it leads to.  Member i's moves are
    ``bounds[i]:bounds[i + 1]``; stay is move 0 and never leaves the box,
    so move ``bounds[i]`` is its stay.  ``rows[i]`` is the tuple of its
    targets with the last one repeated, where a walk's draw that runs off
    the row's running sums lands.  ``k`` is the largest offset, the
    half-bandwidth of I - gamma P; ``at`` is where each move's entry sits
    in the flat column-major LAPACK band storage of shape (3k + 1, size).
    Every array is read-only.
    """

    size: int
    frm: np.ndarray
    to: np.ndarray
    bounds: np.ndarray
    rows: tuple[tuple[int, ...], ...]
    k: int
    at: np.ndarray


@functools.lru_cache(maxsize=_PLANS)
def _move_plan(shape: tuple[int, ...], moves: tuple[GridPoint, ...]) -> _MovePlan:
    """The ``_MovePlan`` of a box of ``shape`` under ``moves``; cached."""
    coords = np.indices(shape).reshape(len(shape), -1, 1)
    size = coords.shape[1]
    # Column n of ``moved`` is move n % len(moves) taken from member n // len(moves).
    moved = (coords + np.array(moves).T[:, None, :]).reshape(len(shape), -1)
    kept = np.flatnonzero(np.all((moved >= 0) & (moved < np.array(shape)[:, None]), axis=0))
    frm = kept // len(moves)
    to = np.ravel_multi_index(tuple(moved[:, kept]), shape)
    bounds = np.searchsorted(frm, np.arange(size + 1))
    flat, ends = to.tolist(), bounds.tolist()
    rows = tuple(tuple(flat[a:b] + flat[b - 1 : b]) for a, b in zip(ends, ends[1:]))
    k = int(np.max(np.abs(to - frm)))
    height = 3 * k + 1
    # Entry (i, j) of the matrix sits at row 2k + i - j of column j.
    at = 2 * k + frm - to + to * height
    for a in (frm, to, bounds, at):
        a.flags.writeable = False
    return _MovePlan(size, frm, to, bounds, rows, k, at)


def _box_plan(neighborhood: Neighborhood, actions: ActionSet) -> _MovePlan:
    """The cached ``_MovePlan`` of a box's shape and an action set's moves."""
    shape = tuple(b - a + 1 for a, b in zip(neighborhood.lo, neighborhood.hi))
    return _move_plan(shape, actions.moves)


#: Uniforms a walk fetches from its generator at a time.  A block holds the
#: same doubles as that many scalar ``random()`` calls, so the size changes
#: no walk; it bounds what a long walk holds in memory.
_DRAW_BLOCK = 256


def _uniforms(rng):
    """The generator's scalar ``random()`` draws, fetched in blocks."""
    return chain.from_iterable(map(np.ndarray.tolist, map(rng.random, repeat(_DRAW_BLOCK))))


def _grid_rows(grid: ParameterGrid, actions: ActionSet, v: np.ndarray):
    """Per grid node in ``grid.points()`` order, its step table (targets, uphill, ones).

    The whole grid is one box, so ``targets``, the node's targets as
    positions in that same order with the last one repeated, is the row
    of the grid shape's cached ``_MovePlan``, the plan every box of that
    shape reads; ``v`` holds the nodes' values in that order.  ``uphill``
    lists (position, rise) in move order for each move whose rise
    max(v[target] - v[node], 0.0) is positive, the exponent a step scales
    by -beta; ``ones`` is the row's weights when every rise is zero, one
    1.0 per move, a tuple shared by the rows of one length.
    """
    plan = _move_plan(grid.shape, actions.moves)
    rises = v[plan.to] - v[plan.frm]
    up = np.flatnonzero(rises > 0.0)
    pairs = list(zip((up - plan.bounds[plan.frm[up]]).tolist(), rises[up].tolist()))
    cuts = np.searchsorted(up, plan.bounds).tolist()
    ones = [(1.0,) * n for n in range(max(map(len, plan.rows)))]
    return [
        (row, tuple(pairs[a:b]), ones[len(row) - 1])
        for row, a, b in zip(plan.rows, cuts, cuts[1:])
    ]


#: -beta blocks kept at once, one per (schedule, phase length, phase); a
#: block holds one float per step of its phase.  Walks on one grid and
#: schedule share every block while none runs past this many phases, and
#: every value fixed point of one schedule and step budget reads one block,
#: its (schedule, max_j, 0).
_BETA_BLOCKS = 256


@functools.lru_cache(maxsize=_BETA_BLOCKS)
def _minus_betas(schedule: CoolingSchedule, length: int, phase: int) -> tuple[float, ...]:
    """-beta(t) for the ``length`` steps of one phase, t = phase * length, ...; cached."""
    return tuple(-schedule.beta(t) for t in range(phase * length, (phase + 1) * length))


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
        return float(np.median(self.steps))


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
    ``values`` maps every grid node, and nothing else, to a finite value; a
    missing node raises KeyError, and a key off the grid or a value that is
    not finite ValueError, all before any walk starts.  Step t cools by
    ``CoolingSchedule``.
    """
    if mode not in ("free", "fixed"):
        raise ValueError(f"unknown walk mode {mode!r}")
    start = grid.require(start)
    points = list(grid.points())
    missing = [p for p in points if p not in values]
    if missing:
        raise KeyError(f"value table missing {len(missing)} grid nodes, e.g. {missing[0]}")
    if len(values) > len(points):  # every node is a key, so the rest are off the grid
        off = [p for p in values if not grid.contains(p)]
        raise ValueError(f"value table has {len(off)} keys off the grid, e.g. {off[0]}")
    v = np.array([values[p] for p in points], dtype=float)
    finite = np.isfinite(v)
    if not finite.all():  # a NaN would be the argmin, and inf - inf a NaN rise
        bad = np.flatnonzero(~finite)
        raise ValueError(f"value table has {bad.size} values that are not finite, e.g. at {points[bad[0]]}")
    goal = int(np.argmin(v))
    if np.count_nonzero(v == v[goal]) > 1:
        raise NoUniqueArgmin("objective has no unique global argmin on the grid")

    d = grid.d
    switch_every = max(grid.shape)  # the longest grid side
    if mode == "fixed" and d >= 2:
        phases = [ActionSet(d, frozenset(range(d)) - {k}) for k in range(d)]
    else:
        phases = [ActionSet(d)]
    tables = [_grid_rows(grid, actions, v) for actions in phases]
    first = int(np.ravel_multi_index(start, grid.shape))
    schedule = CoolingSchedule(t0=t0)
    exp = math.exp

    steps_out, hits, path = [], [], [start]
    for walk_id in range(n_walks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(walk_id,)))
        draw = _uniforms(rng).__next__
        record = walk_id == 0
        i = first
        hit = i == goal
        t = 0
        # One phase at a time: its steps share an action set and a -beta block.
        while not hit and t < max_steps:
            phase = t // switch_every
            rows = tables[phase % len(tables)]
            for nb in _minus_betas(schedule, switch_every, phase)[: max_steps - t]:
                targets, uphill, ones = rows[i]
                # exp(+-0.0) is exactly 1.0, so only an uphill move calls exp.
                weights = [*ones]
                for j, r in uphill:
                    weights[j] = exp(nb * r)
                sums = list(accumulate(weights))
                # The inverse-CDF draw; one that rounds up to the total takes
                # the repeated last target.
                i = targets[bisect_right(sums, draw() * sums[-1])]
                t += 1
                if record:
                    path.append(points[i])
                if i == goal:
                    hit = True
                    break
        steps_out.append(t)
        hits.append(hit)
    return WalkStatistics(mode=mode, steps=steps_out, hits=hits, target=points[goal], path=path)
