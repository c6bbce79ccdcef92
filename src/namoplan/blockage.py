"""Blockage risk from unseen obstacles in unexplored regions.

Piecewise corridor-blockage probability for a known obstacle size,
marginalized exactly over a truncated Gaussian size population and composed
over the unexplored waypoints of a trajectory into one probability.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .gridmap import Memo, OccupancyGrid, raycast_width
from .planner import Trajectory

log = logging.getLogger(__name__)

# Fixed 64-node Gauss-Legendre rule on [-1, 1] for the middle branch.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# Diameters beyond mu +/- _TAIL sigma carry less than 1.3e-15 of the mass.
_TAIL = 8.0


def _ndtr(x: float) -> float:
    """Standard normal CDF; erfc keeps the lower tail's relative accuracy."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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


def blockage_at_width(pop: ObstaclePopulation, width: float, r: float) -> float:
    """Blockage probability at one corridor width, marginalized exactly over
    the size population N(mu, sigma) truncated to (0, inf).

    The sure-block branch [w - 2r, w) is a difference of normal CDFs; the
    middle branch (w - 4r, w - 2r) is integrated with a fixed Gauss-Legendre
    rule. Both are clipped to mu +/- 8 sigma, so a population whose band
    misses the branches gives exactly 0.
    """
    if width <= 0 or r <= 0:
        raise ValueError("width, r must be positive")
    mu, sigma = pop.mu, pop.sigma
    if sigma == 0.0:
        return blockage_given_size(mu, width, r)
    lo = max(mu - _TAIL * sigma, 0.0)
    hi = mu + _TAIL * sigma
    p = 0.0
    a, b = max(width - 2.0 * r, lo), min(width, hi)
    if a < b:
        p += _ndtr((b - mu) / sigma) - _ndtr((a - mu) / sigma)
    a, b = max(width - 4.0 * r, lo), min(width - 2.0 * r, hi)
    if a < b:
        half = 0.5 * (b - a)
        l_mo = a + half * (_GL_NODES + 1.0)
        pdf = (np.exp(-0.5 * ((l_mo - mu) / sigma) ** 2)
               / (sigma * math.sqrt(2.0 * math.pi)))
        p += half * float(_GL_WEIGHTS @ ((4.0 * r / (width - l_mo) - 1.0) * pdf))
    return min(max(p / _ndtr(mu / sigma), 0.0), 1.0)


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
                               grid: OccupancyGrid, explored: np.ndarray,
                               r: float) -> list[WaypointRisk]:
    """Per-waypoint risk terms over the part of a trajectory that the mask
    `explored`, of the grid's shape, leaves unexplored.

    Waypoints are subsampled at one mean obstacle diameter of arc length:
    consecutive grid waypoints describe the same physical corridor slot, so
    treating each as independent would overstate the risk. The scored
    waypoint after one at arc length s is the first unexplored one at
    `s + spacing` or beyond; one inside a static cell scores nothing.
    """
    risks: list[WaypointRisk] = []
    spacing = max(pop.mu, grid.resolution)
    # Arc length summed left to right, as a walk over the steps would.
    travelled = list(accumulate(trajectory.step_lengths, initial=0.0))
    unexplored = np.flatnonzero(_unexplored(grid, explored, trajectory)).tolist()
    next_at = 0.0
    k = 0
    while True:
        k = bisect_left(unexplored, bisect_left(travelled, next_at), k)
        if k == len(unexplored):
            return risks
        idx = unexplored[k]
        k += 1
        next_at = travelled[idx] + spacing
        pos = trajectory.positions[idx]
        width = raycast_width(grid, pos[0], pos[1],
                              float(trajectory.headings[idx]))
        if width is None:
            continue
        p_given = blockage_at_width(pop, width, r)
        # In wide-open space no obstacle size in the population can block the
        # traversal line, so skip the presence factor (whose W*K/A form is
        # only meaningful at corridor-scale widths anyway).
        p_here = (waypoint_presence_probability(pop, width)
                  if p_given > 0.0 else 0.0)
        risks.append(WaypointRisk(idx, float(pos[0]), float(pos[1]),
                                  width, p_given, p_here))


def _unexplored(grid: OccupancyGrid, explored: np.ndarray,
                trajectory: Trajectory) -> np.ndarray:
    """Which waypoints lie in a cell `explored` leaves unexplored: off the
    map counts as explored. The waypoints' cells depend only on the map's
    shape and resolution, so they are kept on the trajectory."""
    cells = trajectory.memoized(("cells", grid.key), grid.flat_cells,
                                *trajectory.positions.T)
    # An index of -1 reads the last cell; `cells >= 0` masks it out.
    return (cells >= 0) & ~explored.ravel()[cells]


# Blockage probabilities by everything a score reads: the trajectory, the
# map, the population, the robot radius and which of the trajectory's cells
# are explored. Paired seeds, and a decision repeated after a failed load,
# score the same route from the same explored state.
_BLOCKAGE_MEMO = Memo(256)


def trajectory_blockage(pop: ObstaclePopulation, trajectory: Trajectory,
                        grid: OccupancyGrid, explored: np.ndarray,
                        r: float) -> float:
    """Probability that at least one unseen obstacle blocks the trajectory,
    given the explored mask `explored`. Memoized on its inputs; of the mask
    it reads only which waypoints are unexplored, so the key holds just
    that."""
    unseen = _unexplored(grid, explored, trajectory).tobytes()
    return _BLOCKAGE_MEMO.lookup((trajectory, grid.key, pop, r, unseen),
                                 _blockage, pop, trajectory, grid, explored, r)


def _blockage(pop: ObstaclePopulation, trajectory: Trajectory,
              grid: OccupancyGrid, explored: np.ndarray, r: float) -> float:
    survive = 1.0
    for wr in trajectory_blockage_detail(pop, trajectory, grid, explored, r):
        survive *= 1.0 - wr.p_block
    return min(max(1.0 - survive, 0.0), 1.0)
