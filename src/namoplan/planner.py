"""A* shortest paths on the inflated grid, with temporary ellipse obstacles."""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gridmap import (_MISS, FREE, GridPosition, OccupancyGrid,
                      inflated_blocked_mask, lru_lookup, lru_store)


class EndpointBlocked(ValueError):
    """Start or goal lies inside an inflated obstacle (distinct from NoPath)."""


@dataclass(frozen=True)
class Ellipse:
    """Axis-angle ellipse: center, semi-axes (a, b), rotation of the a-axis."""

    cx: float
    cy: float
    a: float
    b: float
    angle: float

    def contains(self, x, y, margin: float = 0.0):
        """Whether (x, y) lies in the closed ellipse grown by `margin`.

        Works elementwise on numpy arrays, with the same floating-point
        steps as on scalars: the squares are products, because Python's
        `float ** 2` calls libm `pow`, which can differ from numpy's array
        square in the last bit."""
        dx, dy = x - self.cx, y - self.cy
        c, s = math.cos(self.angle), math.sin(self.angle)
        u = (c * dx + s * dy) / (self.a + margin)
        v = (-s * dx + c * dy) / (self.b + margin)
        return u * u + v * v <= 1.0

    def inflate(self, margin: float) -> "Ellipse":
        return Ellipse(self.cx, self.cy, self.a + margin, self.b + margin, self.angle)


@dataclass
class Trajectory:
    """Ordered waypoints (x, y, heading). Heading i points at waypoint i+1;
    the last waypoint inherits its predecessor's heading.

    A trajectory whose two arrays are both read-only, as every one
    `plan_path` returns is, keeps the answers of `memoized`; a writable one
    computes them every call, so changed waypoints never read a stale one.
    """

    positions: np.ndarray  # (N, 2)
    headings: np.ndarray = field(default=None)  # type: ignore[assignment]
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] < 2:
            raise ValueError("trajectory needs at least 2 waypoints")
        if self.headings is None:
            self.headings = _headings_from_positions(self.positions)
        else:
            self.headings = np.asarray(self.headings, dtype=float)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def memoized(self, key, compute, *args):
        """`compute(*args)`, kept under `key` while both arrays are
        read-only. The key must name every input of `compute` other than
        the waypoints; an exception is never kept."""
        if self.positions.flags.writeable or self.headings.flags.writeable:
            return compute(*args)
        value = self._memo.get(key, _MISS)
        if value is _MISS:
            value = self._memo[key] = compute(*args)
        return value

    @property
    def total_length(self) -> float:
        return self.memoized("total_length", _total_length, self.positions)

    @cached_property
    def step_lengths(self) -> list[float]:
        """Length of each step, equal bit for bit to the 1-D
        `np.linalg.norm(p1 - p0)`: `vecdot` uses the same dot kernel, where
        `norm(..., axis=1)` squares and sums differently and disagrees in the
        last bit on some steps."""
        d = np.diff(self.positions, axis=0)
        return np.sqrt(np.vecdot(d, d)).tolist()

    @property
    def start(self) -> np.ndarray:
        return self.positions[0]

    @property
    def goal(self) -> np.ndarray:
        return self.positions[-1]

    def segment(self, i: int, j: int) -> "Trajectory":
        return Trajectory(self.positions[i:j + 1].copy())


def _total_length(positions: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))


def _headings_from_positions(positions: np.ndarray) -> np.ndarray:
    diffs = np.diff(positions, axis=0)
    head = np.arctan2(diffs[:, 1], diffs[:, 0])
    return np.append(head, head[-1])


@dataclass
class PlanRequest:
    start: GridPosition
    goal: GridPosition
    temporary_obstacles: tuple[Ellipse, ...] = ()


# 8-connected moves with costs; order fixed for determinism.
_MOVES = [
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, math.sqrt(2)), (1, -1, math.sqrt(2)),
    (-1, 1, math.sqrt(2)), (-1, -1, math.sqrt(2)),
]


def blocked_mask(grid: OccupancyGrid, robot_radius: float,
                 ellipses: tuple[Ellipse, ...] = ()) -> np.ndarray:
    """Planning obstacle mask: statics inflated by the robot radius, plus
    temporary ellipses inflated likewise (their MO size is already folded in)."""
    mask = inflated_blocked_mask(grid, robot_radius)
    if ellipses:
        res = grid.resolution
        h, w = mask.shape
        for e in ellipses:
            ei = e.inflate(robot_radius)
            reach = max(ei.a, ei.b)
            ix0 = max(0, int((ei.cx - reach) / res) - 1)
            ix1 = min(w, int((ei.cx + reach) / res) + 2)
            iy0 = max(0, int((ei.cy - reach) / res) - 1)
            iy1 = min(h, int((ei.cy + reach) / res) + 2)
            # An ellipse wholly off the map's low side gives a negative
            # stop, which a slice would wrap around.
            if ix0 >= ix1 or iy0 >= iy1:
                continue
            xs = (np.arange(ix0, ix1) + 0.5) * res
            ys = (np.arange(iy0, iy1) + 0.5) * res
            mask[iy0:iy1, ix0:ix1] |= ei.contains(xs[np.newaxis, :],
                                                  ys[:, np.newaxis])
    return mask


def planning_mask(grid: OccupancyGrid, request: PlanRequest,
                  robot_radius: float) -> np.ndarray:
    """The mask A* searches for `request`: `blocked_mask` with an escape
    carved for a start inside a temporary ellipse.

    A start inside a temporary ellipse (but clear of static inflation) is
    escapable: the robot is standing in the conservative region around an
    obstacle, not in collision, so the shortest route out is carved free.
    """
    mask = blocked_mask(grid, robot_radius, tuple(request.temporary_obstacles))
    if request.temporary_obstacles:
        sy, sx = grid.cell_index(request.start.x, request.start.y)
        h, w = mask.shape
        if 0 <= sy < h and 0 <= sx < w and mask[sy, sx]:
            static = inflated_blocked_mask(grid, robot_radius)
            if not static[sy, sx]:
                _carve_escape(mask, static, sy, sx)
    return mask


# Finished searches shared by every caller (episode plans, stock-search
# carry plans, bypass-model training paths), least recently used first. The
# key holds everything A* reads: the planning mask's contents and shape, the
# resolution, and the start and goal cells. The contents are hashed packed
# eight cells to a byte, which for one shape is one-to-one. Paired seeds
# make the policies of a benchmark grid repeat each other's searches, so
# most hits come from other episodes.
_PLAN_CACHE: OrderedDict[tuple, Trajectory | None] = OrderedDict()
_PLAN_CACHE_SIZE = 128

# For each request on a grid with a key, the `_PLAN_CACHE` key it built
# last, least recently used first. On such a grid the request's inputs fix
# the planning mask: `grid.key` names the cells, shape and resolution, and
# with the robot radius they fix the static inflation and the rasterized
# ellipses; the start cell places the escape carve. So a request that
# recurs, as at a decision repeated after a failed load, skips building
# and hashing the mask. The index holds keys, not plans: an evicted plan is
# searched again.
_PLAN_INDEX: OrderedDict[tuple, tuple] = OrderedDict()
_PLAN_INDEX_SIZE = 512


def plan_path(grid: OccupancyGrid, request: PlanRequest,
              robot_radius: float) -> Trajectory | None:
    """8-connected A* over the inflated grid. Returns None when the goal is
    unreachable (callers translate that to an infinite cost).

    The path depends only on `planning_mask(grid, request, robot_radius)`
    and the start and goal cells, so it is cached on them; a returned
    trajectory's arrays are read-only because later calls hand out the same
    object. On a grid with a key, a request seen before is answered from
    `_PLAN_INDEX` without building the mask. A request that raises
    (`EndpointBlocked`, start equals goal) is never cached or indexed.
    """
    if grid.key is None:
        return _cached_plan(grid, request, robot_radius)[1]
    request_key = (grid.key, robot_radius, tuple(request.temporary_obstacles),
                   grid.cell_index(request.start.x, request.start.y),
                   grid.cell_index(request.goal.x, request.goal.y))
    plan_key = _PLAN_INDEX.get(request_key)
    plan = _PLAN_CACHE.get(plan_key, _MISS)
    if plan is _MISS:
        plan_key, plan = _cached_plan(grid, request, robot_radius)
    else:
        _PLAN_CACHE.move_to_end(plan_key)
    lru_store(_PLAN_INDEX, _PLAN_INDEX_SIZE, request_key, plan_key)
    return plan


def _cached_plan(grid: OccupancyGrid, request: PlanRequest,
                 robot_radius: float) -> tuple[tuple, Trajectory | None]:
    """The `_PLAN_CACHE` key of `request` and its plan, searched on a miss."""
    mask = planning_mask(grid, request, robot_radius)
    start, goal = _endpoint_cells(grid, mask, request.start, request.goal)
    key = (hashlib.blake2b(np.packbits(mask), digest_size=16).digest(),
           mask.shape, grid.resolution, start, goal)
    return key, lru_lookup(_PLAN_CACHE, _PLAN_CACHE_SIZE, key,
                           _read_only_plan, grid, mask, start, goal)


def _read_only_plan(grid: OccupancyGrid, mask: np.ndarray,
                    start: tuple[int, int],
                    goal: tuple[int, int]) -> Trajectory | None:
    traj = _astar_on_mask(grid, mask, start, goal)
    if traj is not None:
        traj.positions.flags.writeable = False
        traj.headings.flags.writeable = False
    return traj


def _endpoint_cells(grid: OccupancyGrid, mask: np.ndarray, start: GridPosition,
                    goal: GridPosition) -> tuple[tuple[int, int], tuple[int, int]]:
    """The start and goal cells, checked to be distinct free cells of `mask`."""
    cells = grid.cell_index(start.x, start.y), grid.cell_index(goal.x, goal.y)
    h, w = mask.shape
    for (iy, ix) in cells:
        if not (0 <= iy < h and 0 <= ix < w):
            raise EndpointBlocked("endpoint outside map")
        if mask[iy, ix]:
            raise EndpointBlocked("endpoint blocked")
    if cells[0] == cells[1]:
        raise ValueError("start equals goal")
    return cells


def _carve_escape(mask: np.ndarray, static: np.ndarray, sy: int, sx: int) -> None:
    """Unblock the shortest statics-respecting route from (sy, sx) to the
    nearest cell that is free in `mask`, in place."""
    from collections import deque

    h, w = mask.shape
    prev: dict[tuple[int, int], tuple[int, int]] = {(sy, sx): (sy, sx)}
    queue = deque([(sy, sx)])
    while queue:
        cy, cx = queue.popleft()
        if not mask[cy, cx]:
            while (cy, cx) != (sy, sx):
                mask[cy, cx] = False
                cy, cx = prev[(cy, cx)]
            mask[sy, sx] = False
            return
        for dx, dy, _ in _MOVES:
            ny, nx = cy + dy, cx + dx
            if (0 <= ny < h and 0 <= nx < w and not static[ny, nx]
                    and (ny, nx) not in prev):
                prev[(ny, nx)] = (cy, cx)
                queue.append((ny, nx))


def _astar_on_mask(grid: OccupancyGrid, mask: np.ndarray,
                   start: tuple[int, int], goal: tuple[int, int]) -> Trajectory | None:
    """A* from cell `start` to cell `goal`, both (iy, ix) free in `mask`."""
    res = grid.resolution
    sy, sx = start
    gy, gx = goal
    h, w = mask.shape

    # Search flat lists over the mask padded by one blocked cell, so every
    # neighbour index exists and blocked cells start out closed. Costs, the
    # octile heuristic and the heap order (f, turns, push counter) are
    # computed exactly as in a per-cell search over (x, y), and _MOVES keeps
    # its order, so ties break the same way and the path is bit-identical.
    pw = w + 2
    closed = bytearray(np.pad(mask, 1, constant_values=True).tobytes())
    n = len(closed)
    adx = [abs(x - 1 - gx) for x in range(pw)]
    ady = [abs(y - 1 - gy) for y in range(h + 2)]
    diag = math.sqrt(2) - 2.0
    moves = [(mi, dy * pw + dx, cost, dx, dy)
             for mi, (dx, dy, cost) in enumerate(_MOVES)]
    src = (sy + 1) * pw + sx + 1
    dst = (gy + 1) * pw + gx + 1
    g = [math.inf] * n
    turns = [math.inf] * n  # tie-break: cumulative turn count
    parent = [-1] * n
    parent_dir = [-1] * n
    g[src] = 0.0
    turns[src] = 0.0
    counter = 0
    ax, ay = adx[sx + 1], ady[sy + 1]
    heap = [((ax + ay) + diag * min(ax, ay), 0.0, counter, src)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        cur = pop(heap)[3]
        if closed[cur]:
            continue
        closed[cur] = 1
        if cur == dst:
            break
        cy, cx = divmod(cur, pw)
        base_g = g[cur]
        base_t = turns[cur]
        pdir = parent_dir[cur]
        for mi, off, cost, dx, dy in moves:
            nb = cur + off
            if closed[nb]:
                continue
            ng = base_g + cost
            nt = base_t if pdir == -1 or pdir == mi else base_t + 1.0
            old = g[nb]
            if ng < old - 1e-12 or (ng < old + 1e-12 and nt < turns[nb]):
                g[nb] = ng
                turns[nb] = nt
                parent[nb] = cur
                parent_dir[nb] = mi
                counter += 1
                ax, ay = adx[cx + dx], ady[cy + dy]
                push(heap, (ng + ((ax + ay) + diag * (ax if ax < ay else ay)),
                            nt, counter, nb))
    if not closed[dst]:
        return None

    path = []
    cur = dst
    while cur != -1:
        path.append(cur)
        cur = parent[cur]
    iy, ix = np.divmod(np.array(path[::-1]), pw)
    positions = np.column_stack(((ix - 1 + 0.5) * res, (iy - 1 + 0.5) * res))
    return Trajectory(positions)
