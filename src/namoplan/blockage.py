"""Blockage risk from unseen obstacles in unexplored regions.

Piecewise corridor-blockage probability for a known obstacle size,
marginalized exactly over a truncated Gaussian size population and composed
over the unexplored waypoints of a trajectory into one probability.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.special import ndtr

from .gridmap import (GridPosition, OccupancyGrid, QueryInsideObstacle,
                      lru_lookup, raycast_width)
from .planner import Trajectory

log = logging.getLogger(__name__)

# Fixed 64-node Gauss-Legendre rule on [-1, 1] for the middle branch.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# Diameters beyond mu +/- _TAIL sigma carry less than 1.3e-15 of the mass.
_TAIL = 8.0


@dataclass(frozen=True)
class ObstaclePopulation:
    """Gaussian obstacle-diameter population with an appearance rate over the
    free area."""

    mu: float  # mean diameter, m
    sigma: float  # diameter std, m
    k: float  # appearance parameter
    free_area: float  # m^2

    def __post_init__(self):
        if self.mu <= 0 or self.sigma < 0 or self.k < 0 or self.free_area <= 0:
            raise ValueError("invalid obstacle population parameters")


@dataclass
class WaypointRisk:
    index: int
    x: float
    y: float
    width: float
    p_block_given_here: float
    p_here: float

    @property
    def p_block(self) -> float:
        return self.p_block_given_here * self.p_here


def blockage_given_size(l_mo: float, width: float, r: float) -> float:
    """Probability that an obstacle of diameter l_mo at a uniform lateral
    offset leaves no side gap of 2r in a corridor of the given width.

    Boundary ties go to the lower-probability branch; the result is clamped
    to [0, 1].
    """
    if width <= 0 or r <= 0 or l_mo <= 0:
        raise ValueError("l_mo, width, r must be positive")
    if l_mo >= width:
        return 0.0
    if l_mo >= width - 2.0 * r:
        return 1.0
    if l_mo <= width - 4.0 * r:
        return 0.0
    return min(max(4.0 * r / (width - l_mo) - 1.0, 0.0), 1.0)


# Blockage probabilities by (mu, sigma, width, r): a run scores a few dozen
# distinct widths thousands of times.
_WIDTH_MEMO: OrderedDict[tuple, float] = OrderedDict()
_WIDTH_MEMO_SIZE = 1024


def blockage_at_width(pop: ObstaclePopulation, width: float, r: float) -> float:
    """Blockage probability at one corridor width, marginalized exactly over
    the size population N(mu, sigma) truncated to (0, inf).

    The sure-block branch [w - 2r, w) is a difference of normal CDFs; the
    middle branch (w - 4r, w - 2r) is integrated with a fixed Gauss-Legendre
    rule. Both are clipped to mu +/- 8 sigma, so a population whose band
    misses the branches gives exactly 0. Memoized on the arguments it reads.
    """
    if width <= 0 or r <= 0:
        raise ValueError("width, r must be positive")
    return lru_lookup(_WIDTH_MEMO, _WIDTH_MEMO_SIZE,
                      (pop.mu, pop.sigma, width, r), _marginal, pop.mu,
                      pop.sigma, width, r)


def _marginal(mu: float, sigma: float, width: float, r: float) -> float:
    if sigma == 0.0:
        return blockage_given_size(mu, width, r)
    lo = max(mu - _TAIL * sigma, 0.0)
    hi = mu + _TAIL * sigma
    p = 0.0
    a, b = max(width - 2.0 * r, lo), min(width, hi)
    if a < b:
        p += float(ndtr((b - mu) / sigma) - ndtr((a - mu) / sigma))
    a, b = max(width - 4.0 * r, lo), min(width - 2.0 * r, hi)
    if a < b:
        half = 0.5 * (b - a)
        l_mo = a + half * (_GL_NODES + 1.0)
        pdf = (np.exp(-0.5 * ((l_mo - mu) / sigma) ** 2)
               / (sigma * math.sqrt(2.0 * math.pi)))
        p += half * float(_GL_WEIGHTS @ ((4.0 * r / (width - l_mo) - 1.0) * pdf))
    return min(max(p / float(ndtr(mu / sigma)), 0.0), 1.0)


def waypoint_presence_probability(pop: ObstaclePopulation, width: float) -> float:
    """Probability that some obstacle sits on the traversal line of width
    `width`: W * K / A, clamped to [0, 1]."""
    raw = width * pop.k / pop.free_area
    if raw > 1.0:
        log.warning("presence probability %.3f clamped to 1 (W=%.2f K=%.2f A=%.2f)",
                    raw, width, pop.k, pop.free_area)
        return 1.0
    return max(raw, 0.0)


def trajectory_blockage_detail(pop: ObstaclePopulation, trajectory: Trajectory,
                               grid: OccupancyGrid, r: float) -> list[WaypointRisk]:
    """Per-waypoint risk terms over the unexplored part of a trajectory.

    Waypoints are subsampled at one mean obstacle diameter of arc length:
    consecutive grid waypoints describe the same physical corridor slot, so
    treating each as independent would overstate the risk. The scored
    waypoint after one at arc length s is the first unexplored one at
    `s + spacing` or beyond; one inside a static cell scores nothing.

    A scored waypoint's corridor width depends only on the static map and
    the waypoint, so on a grid with a key a read-only trajectory keeps it
    (or that the waypoint is inside a static cell) on `(grid.key, index)`.
    """
    risks: list[WaypointRisk] = []
    spacing = max(pop.mu, grid.resolution)
    # Arc length summed left to right, as a walk over the steps would.
    travelled = list(accumulate(trajectory.step_lengths, initial=0.0))
    unexplored = _unexplored_indices(grid, trajectory.positions)
    next_at = 0.0
    k = 0
    while True:
        k = bisect_left(unexplored, bisect_left(travelled, next_at), k)
        if k == len(unexplored):
            return risks
        idx = unexplored[k]
        k += 1
        next_at = travelled[idx] + spacing
        if grid.key is None:
            width = _waypoint_width(grid, trajectory, idx)
        else:
            width = trajectory.memoized(("width", grid.key, idx),
                                        _waypoint_width, grid, trajectory, idx)
        if width is None:
            continue
        pos = trajectory.positions[idx]
        p_given = blockage_at_width(pop, width, r)
        # In wide-open space no obstacle size in the population can block the
        # traversal line, so skip the presence factor (whose W*K/A form is
        # only meaningful at corridor-scale widths anyway).
        p_here = (waypoint_presence_probability(pop, width)
                  if p_given > 0.0 else 0.0)
        risks.append(WaypointRisk(idx, float(pos[0]), float(pos[1]),
                                  width, p_given, p_here))


def _waypoint_width(grid: OccupancyGrid, trajectory: Trajectory,
                    idx: int) -> float | None:
    """`raycast_width` at waypoint `idx`, or None inside a static cell."""
    pos = trajectory.positions[idx]
    try:
        return raycast_width(grid, GridPosition(pos[0], pos[1]),
                             float(trajectory.headings[idx]))
    except QueryInsideObstacle:
        return None


def _unexplored_indices(grid: OccupancyGrid, positions: np.ndarray) -> list[int]:
    """Indices of the positions `grid.is_explored` calls unexplored, with its
    arithmetic: off the map counts as explored."""
    xs, ys = positions[:, 0], positions[:, 1]
    inside = (0.0 <= xs) & (xs < grid.width_m) & (0.0 <= ys) & (ys < grid.height_m)
    res = grid.resolution
    unexplored = np.zeros(len(positions), dtype=bool)
    unexplored[inside] = ~grid.explored[(ys[inside] / res).astype(int),
                                        (xs[inside] / res).astype(int)]
    return np.flatnonzero(unexplored).tolist()


def trajectory_blockage(pop: ObstaclePopulation, trajectory: Trajectory,
                        grid: OccupancyGrid, r: float) -> float:
    """Probability that at least one unseen obstacle blocks the trajectory."""
    risks = trajectory_blockage_detail(pop, trajectory, grid, r)
    survive = 1.0
    for wr in risks:
        survive *= 1.0 - wr.p_block
    return min(max(1.0 - survive, 0.0), 1.0)

