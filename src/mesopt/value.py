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
inside [min Rhat, max Rhat] / (1 - gamma).  Rhat and the iterates are
float arrays in ``Neighborhood.members`` order, the iterates the rows of one
stack per call that each step solves into in place.  The stop rule's
sup-norm changes are taken once per block of steps, in one array pass, and
read in step order: a call stops at the step, and with the history, that a
test after every step gives.  ``CoolingSchedule`` lives in ``metropolis``
and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ActionSet, GridPoint, Neighborhood
from .metropolis import CoolingSchedule, _box_plan, _minus_betas

__all__ = [
    "CoolingSchedule",
    "ValueTable",
    "value_fixed_point",
    "fixed_point_iterates",
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


#: LAPACK ``dgbsv``, imported by the first band solve, so that importing this
#: module (and every command that runs no fixed point) loads no scipy.
_dgbsv = None


def _lapack_dgbsv():
    """LAPACK ``dgbsv``, imported on the first call."""
    global _dgbsv
    if _dgbsv is None:
        from scipy.linalg.lapack import dgbsv as _dgbsv
    return _dgbsv


def _band_failed(info: int) -> np.linalg.LinAlgError:
    """The error of a ``dgbsv`` call that returned ``info`` != 0."""
    return np.linalg.LinAlgError(f"band solve failed (LAPACK dgbsv info {info})")


def _band_solve(band: np.ndarray, k: int, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for A with k sub- and k super-diagonals (LAPACK ``dgbsv``).

    ``band`` is A in LAPACK band storage, shape (3k + 1, n): entry (i, j)
    sits at row 2k + i - j, and the first k rows are room for the fill-in
    of partial pivoting; it is overwritten.  A singular A raises
    ``np.linalg.LinAlgError``.  This is one solve of the fixed point's
    loop on its own, the form the tests' band oracles call.
    """
    _, _, x, info = _lapack_dgbsv()(k, k, band, rhs, overwrite_ab=1)
    if info != 0:
        raise _band_failed(info)
    return x


#: Steps run between two convergence tests.  A test takes the sup-norm
#: changes of a whole block of iterates in one array pass, and a call that
#: converges mid-block throws away at most ``_BLOCK - 1`` steps.
_BLOCK = 8


def _annealed_map(rhat, neighborhood, actions, gamma, schedule, n_steps, tol_v):
    """The fixed-point map shared by both entry points, validated up front.

    Runs V_{j+1} = (I - gamma P_j)^-1 Rhat from V_0 = Rhat for j = 0, 1,
    ..., n_steps - 1, stopping after the first step whose sup-norm change
    is below tol_v.  Step j weighs the box's moves from V_j at inverse
    temperature beta_j, read as -beta_j from the cached block the walks
    share (``_minus_betas``), and solves one band system: every move is a
    fixed offset in member order, so I - gamma P_j is a band matrix whose
    half-bandwidth k is the largest offset, and the box's cached move plan
    says where each move's entry sits in band storage.

    The iterates live in one (n_steps + 1, m) stack, every row filled with
    Rhat up front: step j solves into row j + 1 in place, Rhat being its
    right-hand side.  Convergence is tested once per ``_BLOCK`` steps, the
    block's sup-norm changes taken in one pass and read in step order, so
    the call stops at the same step, with the same history, as a test after
    every step; the steps run past it are thrown away.  A failed solve
    raises only when no step before it converged.  Returns (the stack's
    rows V_0 .. V_j up to the step j where the call stopped, the j sup
    deltas, whether it stopped below tol_v).
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
    iterates = np.empty((n_steps + 1, m))
    iterates[:] = rhat
    deltas = []
    for start in range(0, n_steps, _BLOCK):
        stop = min(start + _BLOCK, n_steps)
        for j in range(start, stop):
            # Each move's weight exp(-beta_j * max(rise, 0)) over its member's
            # sum, taken in move order as a walk step sums a row.
            v = iterates[j]
            w = v[to] - v[frm]
            np.maximum(w, 0.0, out=w)
            w *= minus_betas[j]
            np.exp(w, out=w)
            w /= np.bincount(frm, weights=w, minlength=m)[frm]
            w *= -gamma
            band = np.zeros(m * (3 * k + 1))
            band[at] = w
            band[diagonal] += 1.0
            info = dgbsv(k, k, band.reshape(m, -1).T, iterates[j + 1], overwrite_ab=1, overwrite_b=1)[3]
            if info != 0:
                stop = j  # rows start .. j hold iterates; row j + 1 does not
                break
        change = iterates[start + 1 : stop + 1] - iterates[start:stop]
        for j, delta in enumerate(np.abs(change, out=change).max(axis=1).tolist(), start + 1):
            deltas.append(delta)
            if delta < tol_v:
                return iterates[: j + 1], deltas, True
        if info != 0:
            raise _band_failed(info)
    return iterates, deltas, False


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
    iterates, history, converged = _annealed_map(rhat, neighborhood, actions, gamma, schedule, max_j, tol_v)
    # A copy of the last row, so that the table does not hold the stack.
    return ValueTable(neighborhood.members, iterates[-1].copy(), len(history), converged, history)


def fixed_point_iterates(
    rhat: np.ndarray,
    neighborhood: Neighborhood,
    actions: ActionSet,
    gamma: float,
    schedule: CoolingSchedule,
    n_iters: int,
):
    """All iterates V_0 .. V_{n_iters} (rows of one array) plus per-step sup deltas and betas.

    Same map as value_fixed_point but runs a fixed number of iterations and
    keeps every iterate, for the 1-d demonstration exports.
    """
    iterates, deltas, _ = _annealed_map(rhat, neighborhood, actions, gamma, schedule, n_iters, 0.0)
    betas = [-nb for nb in _minus_betas(schedule, n_iters, 0)]
    return list(iterates), deltas, betas


def argmin_value(table: ValueTable) -> GridPoint:
    """Member with the smallest value; ties go to the first, the smallest multi-index."""
    return table.members[int(np.argmin(table.values))]
