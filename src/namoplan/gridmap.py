"""Occupancy-grid world model: ray casting, corridor widths, visibility."""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

FREE = 0
STATIC = 1

_CELL_CHARS = {FREE: ".", STATIC: "#"}
_CHAR_CELLS = {v: k for k, v in _CELL_CHARS.items()}


class QueryInsideObstacle(ValueError):
    """Raised when a free-space query lands inside an obstacle cell."""


@dataclass
class GridPosition:
    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass
class OccupancyGrid:
    """Row-major cell grid. cells[iy, ix] covers
    [ix*res, (ix+1)*res) x [iy*res, (iy+1)*res).

    The explored mask only ever grows during a run. A grid read from a file
    has read-only cells and a `key` naming their contents, on which the ray
    casts below are memoized; a grid built in code has writable cells and no
    key. Read-only arrays stay read-only through pickling.
    """

    resolution: float
    cells: np.ndarray
    explored: np.ndarray = field(default=None)  # type: ignore[assignment]
    key: tuple | None = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        self.cells = np.asarray(self.cells, dtype=np.uint8)
        if self.cells.ndim != 2 or min(self.cells.shape) < 1:
            raise ValueError("cells must be a non-empty 2D array")
        if self.explored is None:
            self.explored = np.zeros_like(self.cells, dtype=bool)
        else:
            self.explored = np.asarray(self.explored, dtype=bool)
            if self.explored.shape != self.cells.shape:
                raise ValueError("explored mask shape mismatch")

    # -- construction -------------------------------------------------

    @staticmethod
    def empty(width_cells: int, height_cells: int, resolution: float) -> "OccupancyGrid":
        return OccupancyGrid(resolution, np.full((height_cells, width_cells), FREE, np.uint8))

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.resolution, self.cells.copy(), self.explored.copy())

    def unexplored_view(self) -> "OccupancyGrid":
        """A grid sharing these cells and this key, with its own mask in
        which nothing is explored yet."""
        view = OccupancyGrid(self.resolution, self.cells)
        view.key = self.key
        return view

    # Unpickled arrays come back writable; a keyed grid's memos rely on its
    # cells never changing, so the flags travel with the arrays.
    def __getstate__(self) -> dict:
        return {**self.__dict__, "_writeable": (self.cells.flags.writeable,
                                                self.explored.flags.writeable)}

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        writeable = state.pop("_writeable")
        self.__dict__.update(state)
        for array, w in zip((self.cells, self.explored), writeable):
            if not w:
                array.flags.writeable = False

    # -- geometry helpers ---------------------------------------------

    @property
    def width_cells(self) -> int:
        return self.cells.shape[1]

    @property
    def height_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def width_m(self) -> float:
        return self.width_cells * self.resolution

    @property
    def height_m(self) -> float:
        return self.height_cells * self.resolution

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        return int(y / self.resolution), int(x / self.resolution)

    def cell_center(self, iy: int, ix: int) -> tuple[float, float]:
        return (ix + 0.5) * self.resolution, (iy + 0.5) * self.resolution

    def in_bounds(self, x: float, y: float) -> bool:
        return 0.0 <= x < self.width_m and 0.0 <= y < self.height_m

    def state_at(self, x: float, y: float) -> int:
        # Everything outside the map counts as static, like the border.
        if not self.in_bounds(x, y):
            return STATIC
        iy, ix = self.cell_index(x, y)
        return int(self.cells[iy, ix])

    def is_free(self, x: float, y: float) -> bool:
        return self.state_at(x, y) == FREE

    def is_explored(self, x: float, y: float) -> bool:
        if not self.in_bounds(x, y):
            return True
        iy, ix = self.cell_index(x, y)
        return bool(self.explored[iy, ix])

    # -- file format ---------------------------------------------------

    def to_text(self) -> str:
        header = f"{self.width_cells} {self.height_cells} {self.resolution}\n"
        rows = "".join(
            "".join(_CELL_CHARS[int(c)] for c in row) + "\n" for row in self.cells
        )
        return header + rows

    @staticmethod
    def from_text(text: str) -> "OccupancyGrid":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        try:
            w, h, res = lines[0].split()
            width, height, resolution = int(w), int(h), float(res)
        except (IndexError, ValueError) as exc:
            raise ValueError("malformed map header") from exc
        if len(lines) - 1 != height:
            raise ValueError(f"expected {height} rows, got {len(lines) - 1}")
        for iy, line in enumerate(lines[1:]):
            if len(line) != width:
                raise ValueError(f"row {iy} has {len(line)} cells, expected {width}")
            if not _CHAR_CELLS.keys() >= set(line):
                bad = next(ch for ch in line if ch not in _CHAR_CELLS)
                raise ValueError(f"unknown cell character {bad!r}")
        chars = np.frombuffer("".join(lines[1:]).encode("ascii"), np.uint8)
        cells = np.where(chars == ord(_CELL_CHARS[STATIC]), STATIC, FREE)
        cells = cells.astype(np.uint8).reshape(height, width)
        return OccupancyGrid(resolution, cells)

    @staticmethod
    def load(path: str | Path) -> "OccupancyGrid":
        grid = OccupancyGrid.from_text(Path(path).read_text())
        grid.cells.flags.writeable = False
        # Hashed once here: hashing on every query would cost more than
        # the ray casts it saves.
        grid.key = (hashlib.blake2b(grid.cells.tobytes(), digest_size=16).digest(),
                    grid.cells.shape, grid.resolution)
        return grid

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())


# ----------------------------------------------------------------------
# queries

_MISS = object()


def lru_lookup(memo: OrderedDict, size: int, key, compute, *args):
    """`memo[key]`, filled with `compute(*args)` on a miss, keeping at most
    `size` entries: the least recently used one is dropped first. Any value,
    None included, is stored."""
    value = memo.get(key, _MISS)
    if value is _MISS:
        value = compute(*args)
        lru_store(memo, size, key, value)
    else:
        memo.move_to_end(key)
    return value


def lru_store(memo: OrderedDict, size: int, key, value) -> None:
    """Set `memo[key]` as the most recently used entry, dropping the least
    recently used one past `size` entries."""
    memo[key] = value
    memo.move_to_end(key)
    if len(memo) > size:
        memo.popitem(last=False)


# Visibility and ray casts are pure functions of the static map and the
# query, and paired seeds repeat both across the episodes of a grid. On a
# grid with a key they are memoized, least recently used first, on the key
# and the query arguments. A hit returns exactly what the call would compute.
_VISIBILITY_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()
_VISIBILITY_MEMO_SIZE = 256
_RAY_MEMO: OrderedDict[tuple, float] = OrderedDict()
_RAY_MEMO_SIZE = 2048


def _memoized(memo: OrderedDict, size: int, compute, grid: OccupancyGrid,
              *query):
    """`compute(grid, *query)`, memoized in `memo` when the grid has a key."""
    if grid.key is None:
        return compute(grid, *query)
    return lru_lookup(memo, size, (grid.key, *query), compute, grid, *query)


def raycast_distance(grid: OccupancyGrid, x: float, y: float, angle: float,
                     max_range: float | None = None) -> float:
    """Distance from (x, y) to the first static cell or map border along angle."""
    return _memoized(_RAY_MEMO, _RAY_MEMO_SIZE, _raycast, grid, x, y, angle,
                     max_range)


def _raycast(grid: OccupancyGrid, x: float, y: float, angle: float,
             max_range: float | None) -> float:
    res = grid.resolution
    step = res * 0.5
    width_m, height_m = grid.width_m, grid.height_m
    limit = max_range if max_range is not None else width_m + height_m
    dx, dy = math.cos(angle), math.sin(angle)
    # `state_at` inlined: a half-cell walk reading cells through a
    # memoryview, with the same arithmetic, so every distance is unchanged.
    cells = memoryview(grid.cells)
    d = step
    while d <= limit:
        px = x + d * dx
        py = y + d * dy
        if not (0.0 <= px < width_m and 0.0 <= py < height_m):
            return d
        if cells[int(py / res), int(px / res)] == STATIC:
            return d
        d += step
    return limit


def raycast_width(grid: OccupancyGrid, point: GridPosition, heading: float) -> float:
    """Free-space span perpendicular to heading through point.

    Measures the corridor width at a waypoint: distance between the first
    static hit on each side of the traversal line.
    """
    if grid.state_at(point.x, point.y) != FREE:
        raise QueryInsideObstacle("query inside obstacle")
    perp = heading + math.pi / 2.0
    left = raycast_distance(grid, point.x, point.y, perp)
    right = raycast_distance(grid, point.x, point.y, perp + math.pi)
    return max(left + right, grid.resolution)


def free_area(grid: OccupancyGrid) -> float:
    """Total area of free cells in square meters."""
    return float(np.count_nonzero(grid.cells == FREE)) * grid.resolution ** 2


def mark_explored(grid: OccupancyGrid, x: float, y: float, heading: float,
                  sensor_range: float = 5.0, fov: float = math.pi / 2.0) -> None:
    """Grow the explored mask with single-bounce visibility from (x, y).

    Rays are cast over the field of view; cells behind the first static hit
    stay unexplored. Mutates the grid in place.
    """
    if not grid.in_bounds(x, y):
        raise ValueError("robot pose outside map")
    np.put(grid.explored, _memoized(_VISIBILITY_MEMO, _VISIBILITY_MEMO_SIZE,
                                    _visible_cells, grid, x, y, heading,
                                    sensor_range, fov), True)


def _visible_cells(grid: OccupancyGrid, x: float, y: float, heading: float,
                   sensor_range: float, fov: float) -> np.ndarray:
    """Sorted flat indices of the cells `mark_explored` marks, read-only."""
    res = grid.resolution
    # Angular step fine enough that adjacent rays at max range are < 1 cell apart.
    n_rays = max(8, int(math.ceil(fov * sensor_range / (0.5 * res))))
    angles = heading + np.linspace(-fov / 2.0, fov / 2.0, n_rays)
    steps = np.arange(0.0, sensor_range + res, 0.5 * res)
    h, w = grid.cells.shape
    # One row per ray. The per-ray cos and sin come from math, and each
    # sample point is x + step * cos as in a ray-by-ray walk, so the cell
    # indices (truncated toward zero) are exactly those of that walk.
    cos = np.array([math.cos(a) for a in angles.tolist()])[:, None]
    sin = np.array([math.sin(a) for a in angles.tolist()])[:, None]
    ixs = ((x + steps * cos) / res).astype(int)
    iys = ((y + steps * sin) / res).astype(int)
    inside = (ixs >= 0) & (ixs < w) & (iys >= 0) & (iys < h)
    static = np.zeros_like(inside)
    static[inside] = grid.cells[iys[inside], ixs[inside]] == STATIC
    # A ray sees its cells up to the first one off the map (exclusive) or
    # the first static one (inclusive), whichever comes first.
    n = steps.size
    first_out = np.where(inside.all(axis=1), n, np.argmin(inside, axis=1))
    past_static = np.where(static.any(axis=1), np.argmax(static, axis=1) + 1, n)
    seen = np.arange(n) < np.minimum(first_out, past_static)[:, None]
    iy0, ix0 = grid.cell_index(x, y)
    iys, ixs = np.append(iys[seen], iy0), np.append(ixs[seen], ix0)
    # Deduplicate in the bounding box of the seen cells, so the cost follows
    # the sensor's reach and not the size of the map.
    top, left = iys.min(), ixs.min()
    box_w = ixs.max() - left + 1
    box = np.zeros((iys.max() - top + 1) * box_w, dtype=bool)
    box[(iys - top) * box_w + ixs - left] = True
    local = np.flatnonzero(box)
    cells = ((local // box_w + top) * w + local % box_w + left).astype(np.int32)
    cells.flags.writeable = False
    return cells


# Static inflation of a loaded grid, keyed on `(grid.key, radius)`.
_INFLATION_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_INFLATION_CACHE_SIZE = 8


def inflated_blocked_mask(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """Boolean mask of cells whose center is within radius of any static cell
    (or the map border). Used as the planning substrate.

    Masks of a grid with a key are cached on the key and the radius; a grid
    built in code computes every call, so changed cells never read a stale
    mask. Every call returns a fresh copy the caller may write to.
    """
    return _memoized(_INFLATION_CACHE, _INFLATION_CACHE_SIZE, _inflate, grid,
                     radius).copy()


def _inflate(grid: OccupancyGrid, radius: float) -> np.ndarray:
    # Pad with a static border so the map edge inflates inward.
    padded = np.pad(grid.cells == STATIC, 1, constant_values=True)
    dist = ndimage.distance_transform_edt(~padded) * grid.resolution
    return dist[1:-1, 1:-1] <= radius
