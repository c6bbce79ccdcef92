"""Removal-cost modeling: Beta success-rate belief, expected attempt cost,
and a simplified stock-region placement with a motion-time estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    cost = t_mo * sum(i * p_a * q ** (i - 1) for i in range(1, max_attempts + 1))
    return cost + (max_attempts * t_mo + c_by) * q ** max_attempts


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


def _stock_candidates(grid: OccupancyGrid, mx: float, my: float,
                      mo_radius: float,
                      search_radius: float) -> list[tuple[float, int, int]]:
    """(distance, iy, ix) of the free cells that keep an obstacle of
    `mo_radius` clear of static obstacles, between 2 cells and
    `search_radius` from (mx, my), nearest first."""
    res = grid.resolution
    r_cells = int(math.ceil(search_radius / res))
    ciy, cix = grid.cell_index(mx, my)
    iy0, ix0 = max(0, ciy - r_cells), max(0, cix - r_cells)
    iy1 = min(grid.height_cells, ciy + r_cells + 1)
    ix1 = min(grid.width_cells, cix + r_cells + 1)
    if iy0 >= iy1 or ix0 >= ix1:
        return []
    ok = ((grid.cells[iy0:iy1, ix0:ix1] == FREE)
          & ~blocked_mask(grid, mo_radius)[iy0:iy1, ix0:ix1])
    iys, ixs = np.nonzero(ok)
    candidates = []
    for iy, ix in zip((iys + iy0).tolist(), (ixs + ix0).tolist()):
        x, y = grid.cell_center(iy, ix)
        dist = math.hypot(x - mx, y - my)
        if 2.0 * res <= dist <= search_radius:
            candidates.append((dist, iy, ix))
    candidates.sort()
    return candidates


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
    path_pts = blocked_path.positions
    candidates = _stock_candidates(grid, mx, my, mo.radius, search_radius)
    for first in range(0, len(candidates), _CLEARANCE_CHUNK):
        chunk = candidates[first:first + _CLEARANCE_CHUNK]
        centers = np.array([grid.cell_center(iy, ix) for _, iy, ix in chunk])
        d_path = np.linalg.norm(path_pts - centers[:, np.newaxis],
                                axis=-1).min(axis=1)
        for (_, iy, ix), d in zip(chunk, d_path):
            if d < clearance_path:
                continue
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
