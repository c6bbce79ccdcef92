"""Removal-cost modeling: Beta success-rate belief, expected attempt cost,
and a simplified stock-region placement with a motion-time estimate."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .gridmap import OccupancyGrid, static_inflation
from .intervals import CostInterval
from .planner import _STOCK, Trajectory, plan_path


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


@dataclass(frozen=True)
class RemovalEstimate:
    t_mo: float
    stock: tuple[float, float]
    carry_length: float


def _fitting_bands(grid: OccupancyGrid, mx: float, my: float,
                   mo_radius: float, inner: float, search_radius: float,
                   pts: np.ndarray, clearance: float) -> Iterator[list[int]]:
    """The flat indices (iy * width + ix) of the stock candidates around
    (mx, my) that keep `clearance` from every waypoint of `pts`, an
    (n, 2) array, band by band in the kernel's order.

    A candidate is a free cell of the search box, clear of the static
    inflation for `mo_radius`, between `inner` and `search_radius` from
    (mx, my) up to a relative 1e-9 of the squared distance. The kernel
    orders the candidates by squared distance, equal ones in row-major
    order, and cuts that order into bands where it leaves a relative gap
    of 1e-9, so every cell of a later band is strictly farther than every
    cell of an earlier one; it tests the cells one by one only until a band
    has any that fit. See `_kernel.c`.
    """
    center = grid.cell_index(mx, my)
    if center is None:
        return
    ciy, cix = center
    res = grid.resolution
    r_cells = int(math.ceil(search_radius / res))
    h, w = grid.cells.shape
    iy0, ix0 = max(0, ciy - r_cells), max(0, cix - r_cells)
    iy1, ix1 = min(h, ciy + r_cells + 1), min(w, cix + r_cells + 1)
    # The kernel reads its arrays by address, as C-contiguous arrays of the
    # dtypes of `_kernel.c`; grids and inflations are such arrays. One
    # buffer holds the search's state {next position, candidate count},
    # the candidate order and the output, in that order.
    blocked = static_inflation(grid, mo_radius)
    pts = np.ascontiguousarray(pts, np.float64)
    area = (iy1 - iy0) * (ix1 - ix0)
    buf = np.empty(2 + 2 * area, np.int64)
    buf[:2] = 0
    state, out = buf.ctypes.data, buf[2 + area:]
    args = (grid.cells.ctypes.data, blocked.ctypes.data, h, w, iy0, iy1, ix0,
            ix1, mx, my, res, inner, search_radius, pts.ctypes.data, len(pts),
            clearance, state + 2 * buf.itemsize, state, out.ctypes.data)
    while True:
        n = _STOCK(*args)
        if n == -1:
            raise MemoryError("stock kernel could not allocate its candidate "
                              "arrays")
        if n == -2:
            raise ValueError(f"window {(iy0, iy1, ix0, ix1)} is not in a "
                             f"{(h, w)} map")
        if n == 0:
            return
        yield out[:n].tolist()


def _stock_candidates(grid: OccupancyGrid, mx: float, my: float,
                      mo_radius: float, search_radius: float, pts: np.ndarray,
                      clearance: float) -> Iterator[tuple[float, int, int]]:
    """(distance, iy, ix) of the cells of `_fitting_bands` between 2 cells
    and `search_radius` from (mx, my), nearest first.

    Each band is sorted on the exact `math.hypot` distance and the cell, so
    the cells come out in exactly the order of a full per-cell sort; the
    first distance beyond `search_radius` ends the search, since every
    later band lies farther still."""
    res = grid.resolution
    w = grid.width_cells
    min_dist = 2.0 * res
    for band in _fitting_bands(grid, mx, my, mo_radius, min_dist,
                               search_radius, pts, clearance):
        cells = []
        for c in band:
            iy, ix = divmod(c, w)
            cells.append((math.hypot((ix + 0.5) * res - mx,
                                     (iy + 0.5) * res - my), iy, ix))
        for c in sorted(cells):
            if c[0] > search_radius:
                return
            if c[0] >= min_dist:
                yield c


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
    for _, iy, ix in _stock_candidates(grid, mx, my, mo_radius, search_radius,
                                       blocked_path.positions,
                                       mo_radius + robot_radius):
        stock = grid.cell_center(iy, ix)
        carry = plan_path(grid, (mx, my), stock, robot_radius)
        if carry is None:
            continue
        approach_len = float(np.linalg.norm(np.asarray(robot_xy)
                                            - np.array([mx, my])))
        carry_len = carry.total_length
        # approach + carry + return, plus load/unload handling time
        travel = (approach_len + 2.0 * carry_len) / v_lin
        turning = math.pi / v_rot  # nominal in-place turns at pick and place
        t_mo = travel + turning + load_overhead + unload_overhead
        return RemovalEstimate(t_mo, stock, carry_len)
    return None
