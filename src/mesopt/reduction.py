"""Mesoscopic optimization loop with stability-driven dimension freezing.

Each cycle: evaluate ground truth at the corners of the current box (the
center is carried over from the previous cycle), fit the pinned quadratic,
run the value fixed point under the current action set, jump to the value
argmin, then decide which dimensions to freeze.  A dimension is frozen when
the surrogate offers (relatively) no descent along its axis line through
the new center; the box is then elongated along the surviving dimensions so
its member count roughly matches the previous one.

Freezing is re-evaluated from scratch every cycle ("alternating"), so a
frozen dimension may thaw; "off" disables freezing (fixed-shape boxes).
The run terminates when the argmin coincides with the center while no
dimension is frozen; if some are frozen at coincidence, they are
re-activated and the run continues (a reduced action set stalling on its
axis line says nothing about the remaining directions).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field

from .grid import ActionSet, GridError, GridPoint, Neighborhood, ParameterGrid, make_neighborhood
from .metropolis import CoolingSchedule
from .objectives import BACKEND_FAILURES
from .surrogate import SurrogateError, SurrogateModel, fit_surrogate
from .value import ValueTable, argmin_value, value_fixed_point

__all__ = [
    "OptimizerConfig",
    "CycleRecord",
    "OptimizationTrace",
    "surrogate_sample_points",
    "stability_check",
    "resize_neighborhood",
    "terminate_check",
    "run_optimization",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the mesoscopic loop."""

    gamma: float = 0.9
    epsilon: float = 0.1
    cooling: CoolingSchedule = field(default_factory=CoolingSchedule)
    initial_radii: tuple[int, ...] = (3, 3)
    tol_v: float = 1e-6
    max_cycles: int = 40
    max_j: int = 60
    freeze_mode: str = "alternating"  # "alternating" | "off"

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.tol_v <= 0.0:
            raise ValueError("tol_v must be positive")
        if self.freeze_mode not in ("alternating", "off"):
            raise ValueError(f"unknown freeze mode {self.freeze_mode!r}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.max_j < 0:
            raise ValueError("max_j must be >= 0")
        if any(r < 0 for r in self.initial_radii):
            raise ValueError("radii must be non-negative")
        if not any(self.initial_radii):
            raise ValueError("initial_radii are all 0: a one-member box has nothing to sample")


@dataclass
class CycleRecord:
    """Everything one cycle did, for the trace exports."""

    n: int
    center: GridPoint
    center_value: float
    radii: tuple[int, ...]
    active_dims: tuple[int, ...]
    frozen_dims: tuple[int, ...]
    surrogate: SurrogateModel
    sample_points: tuple[GridPoint, ...]
    value_table: ValueTable
    argmin: GridPoint
    true_objective_at_argmin: float
    simulations_this_cycle: int


@dataclass
class OptimizationTrace:
    """Sequence of cycles plus budget and termination bookkeeping."""

    cycles: list[CycleRecord] = field(default_factory=list)
    total_simulations: int = 0
    terminated_reason: str = "error"
    error: str | None = None

    @property
    def path_length(self) -> int:
        return len(self.cycles)

    def centers(self) -> list[GridPoint]:
        if not self.cycles:
            return []
        return [self.cycles[0].center] + [c.argmin for c in self.cycles]

    def total_value_iterations(self) -> int:
        return sum(c.value_table.iterations for c in self.cycles)


def surrogate_sample_points(neighborhood: Neighborhood) -> tuple[GridPoint, ...]:
    """Ground-truth sample placement: box corners, center excluded.

    A box that is effectively one-dimensional (a width-1 rectangle) gets its
    two endpoints plus one interior midpoint; a clipped box whose corner
    coincides with the center drops that corner.
    """
    lo, hi, center = neighborhood.lo, neighborhood.hi, neighborhood.center
    wide_dims = [i for i, (a, b) in enumerate(zip(lo, hi)) if a != b]
    if not wide_dims:
        raise GridError("neighborhood has a single member; nothing to sample")

    ends = [(a,) if a == b else (a, b) for a, b in zip(lo, hi)]
    corners = [p for p in itertools.product(*ends) if p != center]

    if len(wide_dims) == 1:
        dim = wide_dims[0]
        mid = _interior_midpoint(lo[dim], hi[dim], center[dim])
        if mid is not None:
            point = center[:dim] + (mid,) + center[dim + 1 :]
            if point not in corners:
                corners.append(point)
    return tuple(sorted(corners))


def _interior_midpoint(lo: int, hi: int, center: int) -> int | None:
    # The lower half's midpoint unless it is an endpoint or the center, else
    # the upper half's (rounded up) by the same test; which half is longer
    # plays no part.
    for candidate in ((lo + center) // 2, (center + hi + 1) // 2):
        if candidate not in (lo, hi, center):
            return candidate
    return None


def stability_check(
    surrogate: SurrogateModel, neighborhood: Neighborhood, epsilon: float
) -> tuple[bool, ...]:
    """Per-dimension stability flags from relative axis descent.

    Dimension j is stable when the surrogate's best descent along the axis
    line through the neighborhood center stays below epsilon times the best
    descent anywhere in the box.  When every dimension comes out stable the
    one with the most descent is kept active so the action set never
    empties.
    """
    grid = neighborhood.grid
    center_val = surrogate(grid.theta(neighborhood.center))
    box_vals = surrogate(neighborhood.thetas())
    denom = float(center_val - box_vals.min())
    denom = max(denom, 0.0)

    numerators = []
    for dim in range(grid.d):
        line = neighborhood.axis_line(dim)
        line_vals = surrogate([grid.theta(p) for p in line])
        numerators.append(max(float(center_val - line_vals.min()), 0.0))

    flags = [num < epsilon * denom for num in numerators]
    if all(flags):
        keep = max(range(grid.d), key=lambda i: (numerators[i], -i))
        flags[keep] = False
    return tuple(flags)


def resize_neighborhood(old: Neighborhood, stable: tuple[bool, ...], nominal_size: int) -> tuple[int, ...]:
    """New radii: zero along stable dimensions, expanded along the rest.

    Active dimensions share the largest equal radius whose box does not
    exceed ``nominal_size`` members; each radius is additionally capped at
    the largest useful distance to a grid bound, so fully clipped boxes
    report tight radii.
    """
    if all(stable):
        raise ValueError("cannot resize with every dimension stable")
    n_active = sum(1 for s in stable if not s)
    per_dim = int(nominal_size ** (1.0 / n_active))
    radius = max(0, (per_dim - 1) // 2)
    while (2 * (radius + 1) + 1) ** n_active <= nominal_size:
        radius += 1

    shape = old.grid.shape
    center = old.center
    radii = []
    for i, s in enumerate(stable):
        if s:
            radii.append(0)
        else:
            cap = max(center[i], shape[i] - 1 - center[i])
            radii.append(min(radius, cap))
    return tuple(radii)


def terminate_check(trace: "OptimizationTrace") -> bool:
    """Convergence decision after a completed cycle.

    Grid-exact coincidence of the argmin with the center is the criterion,
    and it only counts when no dimension is frozen, because a reduced action
    set stalling on its axis line says nothing about the other directions.
    """
    if not trace.cycles:
        raise ValueError("terminate_check needs at least one completed cycle")
    last = trace.cycles[-1]
    return last.argmin == last.center and not last.frozen_dims


def run_optimization(
    grid: ParameterGrid,
    theta0: GridPoint,
    backend,
    config: OptimizerConfig,
) -> OptimizationTrace:
    """Run the full mesoscopic loop from a starting grid point.

    ``backend`` maps a physical parameter tuple to the scalar objective.
    The run keeps its ground truth in one dict, ``known``, in the order it
    learns the points: a re-visited point is never re-paid, and the run's
    simulations are the dict's size.  A plain callable works.  A backend
    with a ``group(thetas)`` context, as ``StokesObjective`` has, is offered
    each cycle's new sample points (cycle 0's center with its corners) so
    it may solve them together; the backend holds that group for the block
    alone.  Each point is still evaluated by its own call, in the same
    order either way.  An off-grid start or radii of the wrong length end
    the run as a ``GridError`` before any evaluation.
    """
    trace = OptimizationTrace()
    known: dict[GridPoint, float] = {}

    def value(point: GridPoint) -> float:
        if point not in known:
            known[point] = float(backend(grid.theta(point)))
        return known[point]

    group = getattr(backend, "group", contextlib.nullcontext)
    nominal_size = math.prod(2 * r + 1 for r in config.initial_radii)
    radii = tuple(config.initial_radii)
    actions = ActionSet(grid.d)  # cycle 0 allows every coordinate to change

    try:
        center = grid.require(theta0)
        for n in range(config.max_cycles):
            known_before = len(known)
            neighborhood = make_neighborhood(grid, center, radii)
            samples = surrogate_sample_points(neighborhood)
            # Cycle 0's center is new too, so it joins its corners' group.
            with group([grid.theta(p) for p in (center, *samples) if p not in known]):
                center_value, *values = [value(p) for p in (center, *samples)]
            sample_pairs = [(grid.theta(p), v) for p, v in zip(samples, values)]
            # Earlier ground truths inside the box refine the fit for free;
            # the accumulated set keeps the quadratic from aliasing its
            # curvature between dimensions once the path starts revisiting.
            sampled = {center, *samples}
            for p, v in known.items():
                if p not in sampled and neighborhood.contains(p):
                    sample_pairs.append((grid.theta(p), v))
            surrogate = fit_surrogate(grid.theta(center), center_value, sample_pairs)

            rhat = surrogate(neighborhood.thetas())
            table = value_fixed_point(
                rhat, neighborhood, actions, config.gamma, config.cooling, config.tol_v, config.max_j
            )
            new_center = argmin_value(table)
            true_at_argmin = value(new_center)

            record = CycleRecord(
                n=n,
                center=center,
                center_value=center_value,
                radii=radii,
                active_dims=tuple(sorted(actions.changeable)),
                frozen_dims=actions.frozen(),
                surrogate=surrogate,
                sample_points=samples,
                value_table=table,
                argmin=new_center,
                true_objective_at_argmin=true_at_argmin,
                simulations_this_cycle=len(known) - known_before,
            )
            trace.cycles.append(record)

            if terminate_check(trace):
                trace.terminated_reason = "converged"
                break

            if config.freeze_mode == "off":
                center = new_center
                continue

            # Policy evaluation around the new center, with the current box
            # shape carried over (the next cycle's surrogate does not exist
            # yet, so the current one is re-centered for the decision).
            probe = make_neighborhood(grid, new_center, radii)
            stable = stability_check(surrogate, probe, config.epsilon)
            if new_center == center and any(stable):
                # Stalled on a reduced action set: thaw everything instead.
                stable = tuple(False for _ in range(grid.d))

            radii = resize_neighborhood(probe, stable, nominal_size=nominal_size)
            actions = ActionSet(grid.d, frozenset(i for i, s in enumerate(stable) if not s))
            center = new_center
        else:
            trace.terminated_reason = "max_cycles"
    except (*BACKEND_FAILURES, SurrogateError) as exc:
        # A backend, geometry or fit failure ends the run; anything else is a bug.
        trace.terminated_reason = "error"
        trace.error = f"{type(exc).__name__}: {exc}"

    trace.total_simulations = len(known)
    return trace
