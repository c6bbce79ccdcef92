"""Removal-cost modeling: Beta success-rate belief, expected attempt cost,
and a simplified stock-region placement with a motion-time estimate."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np
from scipy.special import betaincinv

from .gridmap import FREE, GridPosition, OccupancyGrid
from .intervals import CostInterval
from .planner import PlanRequest, Trajectory, blocked_mask, plan_path


@dataclass(frozen=True)
class BetaBelief:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")

    @staticmethod
    def from_trials(successes: int, failures: int) -> "BetaBelief":
        """Belief after a calibration run. The recorded counts stand in for
        the pseudo-counts directly; an all-success or all-failure run keeps
        one pseudo-count of the missing outcome so the belief stays proper."""
        return BetaBelief(max(float(successes), 1.0), max(float(failures), 1.0))


def beta_ppf(q: float, alpha: float, beta: float) -> float:
    """Quantile of Beta(alpha, beta): the inverse regularized incomplete
    beta function."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    return float(betaincinv(alpha, beta, q))


def success_rate_interval(belief: BetaBelief,
                          confidence: float) -> tuple[float, float]:
    """Equal-tailed confidence interval for the success rate."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    lo = beta_ppf((1.0 - confidence) / 2.0, belief.alpha, belief.beta)
    hi = beta_ppf((1.0 + confidence) / 2.0, belief.alpha, belief.beta)
    return lo, hi


def expected_removal_cost(p_a: float, max_attempts: int, t_mo: float,
                          c_by: float) -> float:
    """Expected cost of the remove-with-retries strategy.

    Sum of i * T_MO over the success-on-attempt-i branch, plus the give-up
    branch (M * T_MO + C_by) after M = `max_attempts` straight failures,
    where `t_mo` is one removal's execution time and `c_by` the scalar
    bypass cost after giving up.
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError("p_a must be in [0, 1]")
    q = 1.0 - p_a
    # Left to right: the builtin sum of floats is compensated from Python
    # 3.12 on and would round differently.
    attempts = 0.0
    for i in range(1, max_attempts + 1):
        attempts += i * p_a * q ** (i - 1)
    return t_mo * attempts + (max_attempts * t_mo + c_by) * q ** max_attempts


def removal_cost_interval(belief: BetaBelief, max_attempts: int, t_mo: float,
                          c_by: float, confidence: float) -> CostInterval:
    """Expected-cost interval from the success-rate confidence interval."""
    p_lo, p_hi = success_rate_interval(belief, confidence)
    a = expected_removal_cost(p_lo, max_attempts, t_mo, c_by)
    b = expected_removal_cost(p_hi, max_attempts, t_mo, c_by)
    # The cost is monotone non-increasing in p_a for C_by >= 0, but order
    # defensively rather than assuming.
    return CostInterval(min(a, b), max(a, b))


@dataclass
class RemovalEstimate:
    t_mo: float
    stock_position: GridPosition
    carry_length: float


# Relative gap in squared distance that separates two bands of the
# candidate order. Squared distances and `math.hypot` are each within a few
# ulps of exact, so candidates in a later band are strictly farther than all
# candidates in an earlier one, whatever the rounding.
_BAND_GAP = 1e-9

# Cells whose fit one call of the predicate decides first; each later slice
# doubles. The median search on the bundled scenarios passes a few hundred
# cells before the first that fits, and most searches end at that one.
_FIRST_SLICE = 64


def _stock_candidates(grid: OccupancyGrid, mx: float, my: float,
                      mo_radius: float, search_radius: float,
                      fits: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      max_slice: int) -> Iterator[tuple[float, int, int]]:
    """(distance, iy, ix) of the free cells that keep an obstacle of
    `mo_radius` clear of static obstacles and whose centres pass `fits`,
    between 2 cells and `search_radius` from (mx, my), nearest first.

    The cells are ordered by squared distance in numpy and split into bands
    where that order leaves a clear gap. `fits(xs, ys)` maps arrays of cell
    centres to a boolean array; it sees the cells in slices of that order,
    the first `_FIRST_SLICE` long (at most `max_slice`), each later one
    twice as long, each extended to the end of the band it cuts. Only the
    cells that fit get their exact `math.hypot` distances and their
    (distance, iy, ix) sort within their band. Filtering never reorders a
    band, so the cells yielded are exactly the ones that fit, in the order
    of the full per-cell sort."""
    res = grid.resolution
    r_cells = int(math.ceil(search_radius / res))
    ciy, cix = grid.cell_index(mx, my)
    iy0, ix0 = max(0, ciy - r_cells), max(0, cix - r_cells)
    iy1 = min(grid.height_cells, ciy + r_cells + 1)
    ix1 = min(grid.width_cells, cix + r_cells + 1)
    if iy0 >= iy1 or ix0 >= ix1:
        return
    ok = ((grid.cells[iy0:iy1, ix0:ix1] == FREE)
          & ~blocked_mask(grid, mo_radius)[iy0:iy1, ix0:ix1])
    iys, ixs = np.nonzero(ok)
    iys += iy0
    ixs += ix0
    # The same IEEE operations as `grid.cell_center` followed by the offset.
    xs = (ixs + 0.5) * res
    ys = (iys + 0.5) * res
    dx = xs - mx
    dy = ys - my
    d2 = dx * dx + dy * dy
    # A cell this far out lies beyond `search_radius` whatever the rounding,
    # so it is never yielded and never tested.
    near = np.flatnonzero(d2 <= search_radius * search_radius
                          * (1.0 + _BAND_GAP))
    order = near[np.argsort(d2[near], kind="stable")]
    d2 = d2[order]
    xs, ys, dx, dy = xs[order], ys[order], dx[order], dy[order]
    iys, ixs = iys[order], ixs[order]
    n = len(order)
    ends = np.append(np.flatnonzero(np.diff(d2) > _BAND_GAP * d2[1:]) + 1, n)
    band = np.searchsorted(ends, np.arange(n), side="right")
    min_dist = 2.0 * res
    lo, size = 0, min(_FIRST_SLICE, max_slice)
    while lo < n:
        hi = int(ends[np.searchsorted(ends, min(lo + size, n))])
        fit = np.flatnonzero(fits(xs[lo:hi], ys[lo:hi])) + lo
        cells = zip(band[fit].tolist(), dx[fit].tolist(), dy[fit].tolist(),
                    iys[fit].tolist(), ixs[fit].tolist())
        for _, group in groupby(cells, key=itemgetter(0)):
            for c in sorted((math.hypot(x, y), iy, ix)
                            for _, x, y, iy, ix in group):
                if c[0] > search_radius:
                    return  # every later band lies farther still
                if c[0] >= min_dist:
                    yield c
        lo, size = hi, min(2 * size, max_slice)


# Largest (cells x waypoints) array one clearance test builds: 0.5 MB of
# float64 per temporary.
_CLEARANCE_ELEMENTS = 65_536


def estimate_removal_time(
    grid: OccupancyGrid,
    mean: np.ndarray,
    mo_radius: float,
    robot_xy: np.ndarray,
    blocked_path: Trajectory,
    robot_radius: float,
    v_lin: float,
    v_rot: float,
    load_overhead: float,
    unload_overhead: float,
    search_radius: float,
) -> RemovalEstimate | None:
    """Nearest valid stock cell and the time to move the obstacle, believed
    at `mean` and of radius `mo_radius`, there.

    A stock cell must keep the placed obstacle clear of static obstacles by
    its own radius and clear of the blocked path by obstacle + robot radius,
    and must be reachable from the obstacle position. Returns None when no
    such cell exists within the search radius (removal infeasible)."""
    mx, my = mean
    clearance_path = mo_radius + robot_radius
    # A waypoint farther than search_radius + clearance from the mean cannot
    # come within the clearance of any candidate, so the `<` test below is
    # decided by the rest; the margin dwarfs the rounding of both distances.
    path_pts = blocked_path.positions
    reach = np.linalg.norm(path_pts - (mx, my), axis=1)
    px, py = path_pts[reach <= search_radius + clearance_path + 1e-6].T

    def fits(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # `sqrt(ex*ex + ey*ey)` is what `np.linalg.norm` computes for a
        # 2-vector, and a correctly rounded, monotone sqrt commutes with the
        # min, so this is the per-cell `norm(...).min() < clearance` test.
        # With no waypoint in reach every cell fits.
        ex = px - xs[:, np.newaxis]
        ey = py - ys[:, np.newaxis]
        d2 = (ex * ex + ey * ey).min(axis=1, initial=np.inf)
        return ~(np.sqrt(d2) < clearance_path)

    max_slice = max(1, _CLEARANCE_ELEMENTS // max(1, len(px)))
    for _, iy, ix in _stock_candidates(grid, mx, my, mo_radius, search_radius,
                                       fits, max_slice):
        x, y = grid.cell_center(iy, ix)
        request = PlanRequest(GridPosition(mx, my), GridPosition(x, y))
        try:
            carry = plan_path(grid, request, robot_radius)
        except ValueError:
            continue
        if carry is None:
            continue
        approach_len = float(np.linalg.norm(np.asarray(robot_xy)
                                            - np.array([mx, my])))
        carry_len = carry.total_length
        # approach + carry + return, plus load/unload handling time
        travel = (approach_len + 2.0 * carry_len) / v_lin
        turning = math.pi / v_rot  # nominal in-place turns at pick and place
        t_mo = travel + turning + load_overhead + unload_overhead
        return RemovalEstimate(t_mo, GridPosition(x, y), carry_len)
    return None
