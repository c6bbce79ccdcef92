"""Removal-cost modeling: Beta success-rate belief, expected attempt cost,
and a simplified stock-region placement with a motion-time estimate."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import betaincinv

from .gridmap import FREE, GridPosition, OccupancyGrid
from .intervals import CostInterval
from .observation import MovableObstacle
from .planner import PlanRequest, Trajectory, blocked_mask, plan_path


@dataclass(frozen=True)
class BetaBelief:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @staticmethod
    def from_trials(successes: int, failures: int) -> "BetaBelief":
        """Belief after a calibration run. The recorded counts stand in for
        the pseudo-counts directly; an all-success or all-failure run keeps
        one pseudo-count of the missing outcome so the belief stays proper."""
        return BetaBelief(max(float(successes), 1.0), max(float(failures), 1.0))


def update_belief(belief: BetaBelief, success: bool) -> BetaBelief:
    if success:
        return BetaBelief(belief.alpha + 1.0, belief.beta)
    return BetaBelief(belief.alpha, belief.beta + 1.0)


def beta_ppf(q: float, alpha: float, beta: float) -> float:
    """Quantile of Beta(alpha, beta): the inverse regularized incomplete
    beta function."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    return float(betaincinv(alpha, beta, q))


def success_rate_interval(belief: BetaBelief,
                          confidence: float = 0.95) -> tuple[float, float]:
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
                          c_by: float, confidence: float = 0.95) -> CostInterval:
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


def _stock_candidates(grid: OccupancyGrid, mx: float, my: float,
                      mo_radius: float,
                      search_radius: float) -> Iterator[tuple[float, int, int]]:
    """(distance, iy, ix) of the free cells that keep an obstacle of
    `mo_radius` clear of static obstacles, between 2 cells and
    `search_radius` from (mx, my), nearest first.

    The cells are ordered by squared distance in numpy and split into bands
    where that order leaves a clear gap. Only a band that is reached gets
    its exact `math.hypot` distances and its (distance, iy, ix) sort, so a
    search that takes an early fit never computes the rest."""
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
    dx = (ixs + 0.5) * res - mx
    dy = (iys + 0.5) * res - my
    d2 = dx * dx + dy * dy
    order = np.argsort(d2, kind="stable")
    d2 = d2[order]
    cuts = (np.flatnonzero(np.diff(d2) > _BAND_GAP * d2[1:]) + 1).tolist()
    dx, dy = dx[order].tolist(), dy[order].tolist()
    iys, ixs = iys[order].tolist(), ixs[order].tolist()
    min_dist = 2.0 * res
    for lo, hi in zip([0, *cuts], [*cuts, len(dx)]):
        band = sorted((math.hypot(dx[k], dy[k]), iys[k], ixs[k])
                      for k in range(lo, hi))
        for c in band:
            if c[0] > search_radius:
                return  # every later band lies farther still
            if c[0] >= min_dist:
                yield c


# Candidates whose path clearance one broadcast computes. The search takes
# the first fit and usually stops early, and 32 cells against a
# 400-waypoint path take 200 KB, where a whole 3 m search box (about 3.7k
# cells) would take 24 MB.
_CLEARANCE_CHUNK = 32


def estimate_removal_time(
    grid: OccupancyGrid,
    mo: MovableObstacle,
    robot_xy: np.ndarray,
    blocked_path: Trajectory,
    robot_radius: float,
    v_lin: float = 0.5,
    v_rot: float = 1.0,
    load_overhead: float = 5.0,
    unload_overhead: float = 5.0,
    search_radius: float = 3.0,
) -> RemovalEstimate | None:
    """Nearest valid stock cell and the time to move the obstacle there.

    A stock cell must keep the placed obstacle clear of static obstacles by
    its own radius and clear of the blocked path by obstacle + robot radius,
    and must be reachable from the obstacle position. Returns None when no
    such cell exists within the search radius (removal infeasible)."""
    mx, my = mo.belief.mean
    clearance_path = mo.radius + robot_radius
    # A waypoint farther than search_radius + clearance from the mean cannot
    # come within the clearance of any candidate, so the `<` test below is
    # decided by the rest; the margin dwarfs the rounding of both distances.
    path_pts = blocked_path.positions
    reach = np.linalg.norm(path_pts - (mx, my), axis=1)
    path_pts = path_pts[reach <= search_radius + clearance_path + 1e-6]
    candidates = _stock_candidates(grid, mx, my, mo.radius, search_radius)
    res = grid.resolution
    while chunk := list(islice(candidates, _CLEARANCE_CHUNK)):
        _, iys, ixs = zip(*chunk)
        centers = (np.column_stack([ixs, iys]) + 0.5) * res
        d_path = np.linalg.norm(path_pts - centers[:, np.newaxis],
                                axis=-1).min(axis=1, initial=np.inf)
        for k in np.flatnonzero(~(d_path < clearance_path)).tolist():
            _, iy, ix = chunk[k]
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
