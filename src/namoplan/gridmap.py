"""Occupancy-grid world model: ray casting, corridor widths, visibility."""

from __future__ import annotations

import copy
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FREE = 0
STATIC = 1

_CELL_CHARS = {FREE: ".", STATIC: "#"}
_CHAR_CELLS = {v: k for k, v in _CELL_CHARS.items()}


@dataclass(eq=False)
class OccupancyGrid:
    """Row-major cell grid at `resolution` metres per cell. The point (x, y)
    lies in cell (iy, ix) = (floor(y / res), floor(x / res)), each quotient
    a float division, and is on the map exactly when both indices are in
    range. `cell_index` applies this rule to a point, `flat_cells` to an
    array of them; every other module maps points to cells through them.

    An immutable value: the cells are a read-only copy of those given, named
    by a `key` on which the queries below are memoized. Two grids are told
    apart by their keys, not by `==`. What an episode has seen of the map is
    its own explored mask, not the grid's.
    """

    resolution: float
    cells: np.ndarray
    key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # Row-major whatever the layout given: the kernel reads the cells
        # by address.
        self.cells = np.array(self.cells, dtype=np.uint8, order="C")
        if self.cells.ndim != 2 or min(self.cells.shape) < 1:
            raise ValueError("cells must be a non-empty 2D array")
        # A finite area also rules out a NaN or infinite resolution.
        if not (self.resolution > 0 and math.isfinite(self.width_m * self.height_m)):
            raise ValueError(f"map resolution {self.resolution} must be "
                             "positive and give a finite map area")
        self.cells.flags.writeable = False
        # Hashed once here: hashing on every query would cost more than
        # the queries it saves.
        self.key = (hashlib.blake2b(self.cells.tobytes(), digest_size=16).digest(),
                    self.cells.shape, self.resolution)

    # Unpickled arrays come back writable; the memos rely on a grid's cells
    # never changing.
    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.cells.flags.writeable = False

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

    def cell_index(self, x: float, y: float) -> tuple[int, int] | None:
        """The cell (iy, ix) of the point (x, y), or None off the map."""
        h, w = self.cells.shape
        qy, qx = y / self.resolution, x / self.resolution
        # floor(q) is in [0, n) exactly when q is, so the test can come
        # first and spare floor the NaNs and infinities it rejects.
        if 0.0 <= qy < h and 0.0 <= qx < w:
            return math.floor(qy), math.floor(qx)
        return None

    def flat_cells(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """`cell_index` of each point (xs[i], ys[i]) as the flat index
        iy * width + ix, or -1 off the map."""
        h, w = self.cells.shape
        ix, iy = np.floor(xs / self.resolution), np.floor(ys / self.resolution)
        on = (0.0 <= ix) & (ix < w) & (0.0 <= iy) & (iy < h)
        flat = np.full(on.shape, -1, np.int64)
        flat[on] = iy[on] * w + ix[on]
        return flat

    def cell_center(self, iy: int, ix: int) -> tuple[float, float]:
        return (ix + 0.5) * self.resolution, (iy + 0.5) * self.resolution

    def state_at(self, x: float, y: float) -> int:
        # Everything off the map counts as static, like the border.
        cell = self.cell_index(x, y)
        return STATIC if cell is None else int(self.cells[cell])

    def is_free(self, x: float, y: float) -> bool:
        return self.state_at(x, y) == FREE

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
        rows = lines[1:]
        if len(rows) != height:
            raise ValueError(f"expected {height} rows, got {len(rows)}")
        body = "".join(rows)
        # All rows at once; the row loop runs only to name the first fault.
        if not (set(map(len, rows)) <= {width} and
                sum(map(body.count, _CHAR_CELLS)) == len(body)):
            for iy, line in enumerate(rows):
                if len(line) != width:
                    raise ValueError(f"row {iy} has {len(line)} cells, "
                                     f"expected {width}")
                if not _CHAR_CELLS.keys() >= set(line):
                    bad = next(ch for ch in line if ch not in _CHAR_CELLS)
                    raise ValueError(f"unknown cell character {bad!r}")
        chars = np.frombuffer(body.encode("ascii"), np.uint8)
        cells = np.where(chars == ord(_CELL_CHARS[STATIC]), STATIC, FREE)
        cells = cells.astype(np.uint8).reshape(height, width)
        return OccupancyGrid(resolution, cells)

    @staticmethod
    def load(path: str | Path) -> "OccupancyGrid":
        """The map in the file, read on every call. Each distinct text is
        parsed once per process; every call gets a grid of its own that
        shares the parsed, read-only cells and their key."""
        text = Path(path).read_text()
        return copy.copy(_MAP_MEMO.lookup(text, OccupancyGrid.from_text, text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())


# ----------------------------------------------------------------------
# queries

_MISS = object()
_MEMOS: list["Memo"] = []


class Memo(OrderedDict):
    """A process-wide memo holding at most `size` entries: the least
    recently used one is dropped first. Every memo registers itself, so
    `clear_memos` empties them all."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        _MEMOS.append(self)

    def lookup(self, key, compute, *args):
        """`self[key]`, filled with `compute(*args)` on a miss. Any value,
        None included, is stored; an exception never is."""
        value = self.get(key, _MISS)
        if value is _MISS:
            value = self[key] = compute(*args)
            if len(self) > self.size:
                self.popitem(last=False)
        else:
            self.move_to_end(key)
        return value


def clear_memos() -> None:
    """Empty every memo, so the next queries start cold."""
    for memo in _MEMOS:
        memo.clear()


# Visibility and ray casts are pure functions of the static map and the
# query, and paired seeds repeat both across the episodes of a grid. They
# are memoized on the grid's key and the query arguments. A hit returns
# exactly what the call would compute.
_VISIBILITY_MEMO = Memo(256)
_RAY_MEMO = Memo(2048)

# Parsed maps, keyed on the file's text: a config built again, by
# `dataclasses.replace` among others, re-reads its map but parses nothing.
_MAP_MEMO = Memo(8)


def _memoized(memo: Memo, compute, grid: OccupancyGrid, *query):
    """`compute(grid, *query)`, memoized in `memo` on the grid's key."""
    return memo.lookup((grid.key, *query), compute, grid, *query)


def raycast_distance(grid: OccupancyGrid, x: float, y: float, angle: float,
                     max_range: float | None = None) -> float:
    """Distance from (x, y) to the first static cell or map border along angle."""
    return _memoized(_RAY_MEMO, _raycast, grid, x, y, angle, max_range)


def _raycast(grid: OccupancyGrid, x: float, y: float, angle: float,
             max_range: float | None) -> float:
    res = grid.resolution
    step = res * 0.5
    h, w = grid.cells.shape
    limit = max_range if max_range is not None else grid.width_m + grid.height_m
    dx, dy = math.cos(angle), math.sin(angle)
    # `state_at` inlined: a half-cell walk reading cells through a
    # memoryview. Each point's cell is `cell_index`'s, by the same steps:
    # the quotients are tested first, and on the range they pass int is
    # floor.
    cells = memoryview(grid.cells)
    d = step
    while d <= limit:
        qx = (x + d * dx) / res
        qy = (y + d * dy) / res
        if not (0.0 <= qx < w and 0.0 <= qy < h):
            return d
        if cells[int(qy), int(qx)] == STATIC:
            return d
        d += step
    return limit


def raycast_width(grid: OccupancyGrid, x: float, y: float,
                  heading: float) -> float | None:
    """Free-space span perpendicular to heading through (x, y), or None
    outside a free cell.

    Measures the corridor width at a waypoint: distance between the first
    static hit on each side of the traversal line.
    """
    if not grid.is_free(x, y):
        return None
    perp = heading + math.pi / 2.0
    left = raycast_distance(grid, x, y, perp)
    right = raycast_distance(grid, x, y, perp + math.pi)
    return max(left + right, grid.resolution)


def free_area(grid: OccupancyGrid) -> float:
    """Total area of free cells in square meters."""
    return float(np.count_nonzero(grid.cells == FREE)) * grid.resolution ** 2


def mark_explored(grid: OccupancyGrid, explored: np.ndarray, x: float, y: float,
                  heading: float, sensor_range: float, fov: float) -> None:
    """Grow `explored`, a boolean mask of the grid's shape, with
    single-bounce visibility from (x, y).

    Rays are cast over the field of view; cells behind the first static hit
    stay unexplored. Mutates `explored` in place.
    """
    if grid.cell_index(x, y) is None:
        raise ValueError("robot pose outside map")
    np.put(explored, _memoized(_VISIBILITY_MEMO, _visible_cells, grid,
                               x, y, heading, sensor_range, fov), True)


def _visible_cells(grid: OccupancyGrid, x: float, y: float, heading: float,
                   sensor_range: float, fov: float) -> np.ndarray:
    """Sorted flat indices of the cells `mark_explored` marks, read-only."""
    res = grid.resolution
    # Angular step fine enough that adjacent rays at max range are < 1 cell apart.
    n_rays = max(8, int(math.ceil(fov * sensor_range / (0.5 * res))))
    angles = heading + np.linspace(-fov / 2.0, fov / 2.0, n_rays)
    steps = np.arange(0.0, sensor_range + res, 0.5 * res)
    w = grid.width_cells
    # One row per ray. The per-ray cos and sin come from math, and each
    # sample point is x + step * cos as in a ray-by-ray walk, so the cells
    # are exactly those of that walk.
    cos = np.array([math.cos(a) for a in angles.tolist()])[:, None]
    sin = np.array([math.sin(a) for a in angles.tolist()])[:, None]
    flat = grid.flat_cells(x + steps * cos, y + steps * sin)
    inside = flat >= 0
    # An index of -1 reads the last cell; `inside` masks it out.
    static = inside & (grid.cells.ravel()[flat] == STATIC)
    # A ray sees its cells up to the first one off the map (exclusive) or
    # the first static one (inclusive), whichever comes first.
    n = steps.size
    first_out = np.where(inside.all(axis=1), n, np.argmin(inside, axis=1))
    past_static = np.where(static.any(axis=1), np.argmax(static, axis=1) + 1, n)
    seen = np.arange(n) < np.minimum(first_out, past_static)[:, None]
    iy0, ix0 = grid.cell_index(x, y)
    iys, ixs = np.divmod(np.append(flat[seen], iy0 * w + ix0), w)
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


# Static inflation, keyed on `(grid.key, radius)`.
_INFLATION_CACHE = Memo(8)


def inflated_blocked_mask(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """Boolean mask of cells whose center is within radius of any static cell
    (or the map border). Used as the planning substrate.

    Masks are cached on the grid's key and the radius. Every call returns a
    fresh copy the caller may write to.
    """
    return static_inflation(grid, radius).copy()


def static_inflation(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """The cached, read-only mask that `inflated_blocked_mask` copies."""
    return _memoized(_INFLATION_CACHE, _inflate, grid, radius)


def _inflate(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """Cells whose distance to the nearest static cell, sqrt(d2) * res for
    the integer squared offset d2, is at most `radius`: the float test of a
    Euclidean distance transform. sqrt and the scale are monotone, so the
    test holds exactly for d2 up to one threshold, and a cell passes when
    some row dy away has a static cell within isqrt(threshold - dy**2)
    columns."""
    # Pad with a static border so the map edge inflates inward.
    static = np.pad(grid.cells == STATIC, 1, constant_values=True)
    hp, wp = static.shape
    # Each cell's column distance to the nearest static cell of its row;
    # the padded ends are static, so every row has one.
    cols = np.arange(wp)
    left = np.maximum.accumulate(np.where(static, cols, -wp), axis=1)
    right = np.minimum.accumulate(np.where(static, cols, 2 * wp)[:, ::-1],
                                  axis=1)[:, ::-1]
    row_dist = np.minimum(cols - left, right - cols)[:, 1:-1]
    d2_max = _largest_square_within(grid.resolution, radius, hp * hp + wp * wp)
    h = hp - 2
    mask = np.zeros((h, wp - 2), dtype=bool)
    dy_max = min(math.isqrt(d2_max), h) if d2_max >= 0 else -1
    for dy in range(-dy_max, dy_max + 1):
        # Map row y reads padded row y + 1 + dy, which must be in [0, hp).
        y0, y1 = max(0, -1 - dy), min(h, h + 1 - dy)
        reach = math.isqrt(d2_max - dy * dy)
        mask[y0:y1] |= row_dist[y0 + 1 + dy:y1 + 1 + dy] <= reach
    mask.flags.writeable = False
    return mask


def _largest_square_within(res: float, radius: float, cap: int) -> int:
    """The largest integer d2 in [0, cap] with sqrt(d2) * res <= radius, in
    float arithmetic, or -1 if there is none."""
    def within(d2: int) -> bool:
        return math.sqrt(d2) * res <= radius

    if not within(0):
        return -1
    if within(cap):
        return cap
    # radius < sqrt(cap) * res here, so the estimate is finite and small;
    # rounding leaves it at most a step or two off.
    d2 = min(int((radius / res) ** 2), cap)
    while d2 < cap and within(d2 + 1):
        d2 += 1
    while not within(d2):
        d2 -= 1
    return d2
