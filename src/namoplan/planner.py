"""A* shortest paths on the inflated grid, with temporary ellipse obstacles."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sysconfig
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gridmap import (_MISS, Memo, OccupancyGrid, inflated_blocked_mask,
                      static_inflation)


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


@dataclass(eq=False)
class Trajectory:
    """Ordered waypoints (x, y, heading). Heading i points at waypoint i+1;
    the last waypoint inherits its predecessor's heading.

    The positions are a read-only copy of those given and the headings,
    derived from them, are read-only too, so a trajectory never changes
    and keeps the answers of `memoized`. Trajectories compare by identity.
    """

    positions: np.ndarray  # (N, 2)
    headings: np.ndarray = field(init=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float)
        if (self.positions.ndim != 2 or self.positions.shape[0] < 2
                or self.positions.shape[1] != 2):
            raise ValueError("trajectory needs at least 2 (x, y) waypoints")
        # A NaN or infinite waypoint makes a step non-finite too.
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(self.positions, axis=0)
        if not np.isfinite(steps).all():
            raise ValueError("trajectory waypoints and the steps between "
                             "them must be finite")
        self.headings = _headings_from_steps(steps)
        self.positions.flags.writeable = False
        self.headings.flags.writeable = False

    def __len__(self) -> int:
        return self.positions.shape[0]

    def memoized(self, key, compute, *args):
        """`compute(*args)`, kept under `key`. The key must name every input
        of `compute` other than the waypoints; an exception is never kept."""
        value = self._memo.get(key, _MISS)
        if value is _MISS:
            value = self._memo[key] = compute(*args)
        return value

    @property
    def total_length(self) -> float:
        return self.memoized("total_length", _total_length, self.positions)

    @property
    def step_lengths(self) -> list[float]:
        return self.memoized("step_lengths", _step_lengths, self.positions)


def _total_length(positions: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))


def _step_lengths(positions: np.ndarray) -> list[float]:
    """Length of each step, equal bit for bit to the 1-D
    `np.linalg.norm(p1 - p0)`: `vecdot` uses the same dot kernel, where
    `norm(..., axis=1)` squares and sums differently and disagrees in the
    last bit on some steps."""
    d = np.diff(positions, axis=0)
    return np.sqrt(np.vecdot(d, d)).tolist()


def _headings_from_steps(steps: np.ndarray) -> np.ndarray:
    head = np.arctan2(steps[:, 1], steps[:, 0])
    return np.append(head, head[-1])


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


def planning_mask(grid: OccupancyGrid, start: tuple[float, float],
                  ellipses: tuple[Ellipse, ...],
                  robot_radius: float) -> np.ndarray:
    """The mask A* searches from the point `start` among the temporary
    `ellipses`: `blocked_mask` with an escape carved for a start inside an
    ellipse.

    A start inside a temporary ellipse (but clear of static inflation) is
    escapable: the robot is standing in the conservative region around an
    obstacle, not in collision, so the shortest route out is carved free.
    """
    mask = blocked_mask(grid, robot_radius, ellipses)
    cell = grid.cell_index(*start)
    if ellipses and cell is not None and mask[cell]:
        static = static_inflation(grid, robot_radius)
        if not static[cell]:
            _carve_escape(mask, static, *cell)
    return mask


# The one plan memo, least recently used first, with two kinds of key. A
# mask key holds everything A* reads: a 16-byte blake2b digest of the
# planning mask packed eight cells to a byte (one-to-one for one shape),
# the mask's shape, the resolution, and the start and goal cells. A
# request key holds what fixes that mask and the answer: `grid.key` names
# the cells, shape and resolution, and with the robot radius they fix the
# static inflation and the rasterized ellipses; the start cell places the
# escape carve. A request key starts with a tuple and a mask key with
# bytes, so the two never collide. A recurring request, as at a decision
# repeated after a failed load, skips building and hashing the mask; one
# with an endpoint off the map or blocked, or both in one cell, runs no
# search and keeps its None under the request key alone. Requests whose
# ellipses rasterize alike share one search through the mask key. Paired
# seeds make the policies of a benchmark grid repeat each other's
# searches, so most hits come from other episodes. Episode plans and
# stock-search carry plans share it; the bypass model's training paths
# call `_astar_on_mask` directly. At most 256 plans stay alive.
_PLAN_CACHE = Memo(256)


def plan_path(grid: OccupancyGrid, start: tuple[float, float],
              goal: tuple[float, float], robot_radius: float,
              ellipses: tuple[Ellipse, ...] = ()) -> Trajectory | None:
    """8-connected A* from the point `start` to the point `goal` over the
    inflated grid, around the temporary `ellipses`. Returns None whenever
    there is no path (callers translate that to an infinite cost): the goal
    is unreachable, an endpoint is off the map or blocked in the planning
    mask, or both endpoints lie in one cell.

    The answer depends only on `planning_mask(grid, start, ellipses,
    robot_radius)` and the start and goal cells, so it is memoized on them
    and on the request, and later calls hand out the same answer.
    """
    ellipses = tuple(ellipses)
    cells = grid.cell_index(*start), grid.cell_index(*goal)
    return _PLAN_CACHE.lookup((grid.key, robot_radius, ellipses, *cells),
                              _plan_on_mask, grid, start, cells, ellipses,
                              robot_radius)


def _plan_on_mask(grid: OccupancyGrid, start: tuple[float, float],
                  cells: tuple[tuple[int, int], tuple[int, int]],
                  ellipses: tuple[Ellipse, ...],
                  robot_radius: float) -> Trajectory | None:
    """The plan between `cells` from the point `start`, memoized on its
    planning mask and cells; None unless they are distinct free cells of
    the mask."""
    mask = planning_mask(grid, start, ellipses, robot_radius)
    if (None in cells or cells[0] == cells[1] or mask[cells[0]]
            or mask[cells[1]]):
        return None
    key = (hashlib.blake2b(np.packbits(mask), digest_size=16).digest(),
           mask.shape, grid.resolution, *cells)
    return _PLAN_CACHE.lookup(key, _astar_on_mask, grid, mask, *cells)


def _carve_escape(mask: np.ndarray, static: np.ndarray, sy: int, sx: int) -> None:
    """Unblock the shortest statics-respecting route from (sy, sx) to the
    nearest cell that is free in `mask`, in place."""
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


# The kernel is C, compiled on first import into the package's
# `__pycache__/`: the A* search below and the stock-cell search of
# `removal`. The file name carries a digest of the source, the flags and
# the platform, so an edited source or another platform builds a file of
# its own and a stale build is never loaded. Each build is written under a
# unique temporary name and renamed into place, so processes importing at
# once never read a half-written file. There is no fallback: without a C
# compiler the import fails.
_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-std=c99", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_LIBS = ("-lm",)


def build_kernel(source: Path, out_dir: Path) -> Path:
    """The shared library compiled from `source` into `out_dir`, built
    unless a build of the same source, flags and platform is there."""
    code = source.read_bytes()
    digest = hashlib.blake2b(code, digest_size=8)
    digest.update(repr((_CFLAGS, _LIBS, sysconfig.get_platform())).encode())
    target = out_dir / f"{source.stem}-{digest.hexdigest()}.so"
    if target.exists():
        return target
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    command = ["cc", *_CFLAGS, "-o", str(tmp), str(source), *_LIBS]
    try:
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"cannot build the kernel: "
                              f"{' '.join(command)}: {exc}") from exc
        if proc.returncode != 0:
            raise ImportError(f"cannot build the kernel: "
                              f"{' '.join(command)}\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load_kernel(library: Path):
    """The `astar` and `stock_cells` functions of a library `build_kernel`
    made."""
    lib = ctypes.CDLL(str(library))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    astar, stock = lib.astar, lib.stock_cells
    astar.restype = stock.restype = i64
    astar.argtypes = [np.ctypeslib.ndpointer(np.uint8, flags="C,W"),
                      i64, i64, i64, i64,
                      np.ctypeslib.ndpointer(np.int64, flags="C,W")]
    # A stock search calls `stock_cells` once per band, so its arrays go
    # in as addresses, without the per-call checks of `ndpointer`.
    stock.argtypes = [ptr, ptr, i64, i64, i64, i64, i64, i64, f64, f64, f64,
                      f64, f64, ptr, i64, f64, ptr, ptr, ptr]
    return astar, stock


_ASTAR, _STOCK = load_kernel(build_kernel(
    _SOURCE, _SOURCE.parent / "__pycache__"))


def _astar_on_mask(grid: OccupancyGrid, mask: np.ndarray,
                   start: tuple[int, int], goal: tuple[int, int]) -> Trajectory | None:
    """A* from cell `start` to cell `goal`, both (iy, ix) free in `mask`.

    The search runs in the compiled kernel over the mask padded by one
    blocked cell, so every neighbour index exists and blocked cells start
    out closed; see `_kernel.c` for why its path is bit-identical to a
    per-cell search in Python."""
    res = grid.resolution
    closed = np.pad(mask, 1, constant_values=True).view(np.uint8)
    pw = closed.shape[1]
    path = np.empty(closed.size, np.int64)
    n = _ASTAR(closed, closed.size, pw, (start[0] + 1) * pw + start[1] + 1,
                (goal[0] + 1) * pw + goal[1] + 1, path)
    if n == -1:
        raise MemoryError("A* kernel could not allocate its search arrays")
    if n == -2:
        raise ValueError(f"cells {start} and {goal} are not both in a "
                         f"{mask.shape} mask")
    if n == 0:
        return None
    iy, ix = np.divmod(path[:n], pw)
    positions = np.column_stack(((ix - 1 + 0.5) * res, (iy - 1 + 0.5) * res))
    return Trajectory(positions)
