"""Reference implementations the fast paths in `namoplan` are pinned against.

These are the straightforward per-cell versions: numpy arrays indexed one
scalar at a time from Python. They are slow and kept only so tests can
require the optimized code to give exactly the same answers. The seeded
blockage sampler is the Monte-Carlo estimate the exact marginal replaced;
tests hold the two within sampling error. The timing dataset at the end
builds each row from a trajectory of its own.
"""

from __future__ import annotations

import heapq
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

from namoplan import blockage, observation, planner
from namoplan.bypass import GlrModel, TimingDataset, extract_features
from namoplan.gridmap import FREE, STATIC, OccupancyGrid, raycast_width
from namoplan.observation import InvalidCovariance, confidence_ellipse, wrap_angle
from namoplan.planner import _MOVES, Trajectory, _carve_escape
from namoplan.removal import BetaBelief, RemovalEstimate
from namoplan.simulator import _N_BASE_PATHS


def _octile(ax: int, ay: int, bx: int, by: int) -> float:
    dx, dy = abs(ax - bx), abs(ay - by)
    return (dx + dy) + (math.sqrt(2) - 2.0) * min(dx, dy)


def inflated_blocked_mask(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """Uncached static inflation: cells within radius of a static cell or
    the map border."""
    padded = np.pad(grid.cells == STATIC, 1, constant_values=True)
    dist = ndimage.distance_transform_edt(~padded) * grid.resolution
    return dist[1:-1, 1:-1] <= radius


def blocked_mask(grid: OccupancyGrid, robot_radius: float,
                 ellipses=()) -> np.ndarray:
    """Static inflation plus ellipses rasterized one cell at a time."""
    mask = inflated_blocked_mask(grid, robot_radius)
    res = grid.resolution
    h, w = mask.shape
    for e in ellipses:
        ei = e.inflate(robot_radius)
        reach = max(ei.a, ei.b)
        ix0 = max(0, int((ei.cx - reach) / res) - 1)
        ix1 = min(w, int((ei.cx + reach) / res) + 2)
        iy0 = max(0, int((ei.cy - reach) / res) - 1)
        iy1 = min(h, int((ei.cy + reach) / res) + 2)
        for iy in range(iy0, iy1):
            cy = (iy + 0.5) * res
            for ix in range(ix0, ix1):
                if not mask[iy, ix] and ei.contains((ix + 0.5) * res, cy):
                    mask[iy, ix] = True
    return mask


def path_blocked(positions, obstacles, robot_radius, confidence=0.95):
    """Every waypoint against the ellipse of every (label, belief, radius)
    in `obstacles`, one scalar test at a time; oracle for
    `observation.path_blocked`."""
    ellipses = [(label, confidence_ellipse(belief, radius, confidence))
                for label, belief, radius in obstacles]
    for x, y in positions:
        for mo_id, e in ellipses:
            if e.contains(x, y, margin=robot_radius):
                return mo_id
    return None


def check_psd(cov, tol: float = 1e-12) -> np.ndarray:
    """`allclose` symmetry and `eigvalsh` sign on every matrix; oracle for
    `observation._check_psd`."""
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise InvalidCovariance("invalid covariance: not symmetric")
    if np.min(np.linalg.eigvalsh(cov)) < -tol:
        raise InvalidCovariance("invalid covariance: negative eigenvalue")
    return cov


def turn_angles(headings: np.ndarray) -> np.ndarray:
    """`wrap_angle` of each heading change, one at a time; oracle for
    `observation.turn_angles`."""
    h = headings.tolist()
    return np.abs([wrap_angle(b - a) for a, b in zip(h[:-1], h[1:])])


def plan_path(grid: OccupancyGrid, start: tuple[float, float],
              goal: tuple[float, float], robot_radius: float,
              ellipses: tuple = ()) -> Trajectory | None:
    """`planner.plan_path` built from the reference mask and A*."""
    mask = planning_mask(grid, start, ellipses, robot_radius)
    return astar_on_mask(grid, mask, start, goal)


def planning_mask(grid: OccupancyGrid, start: tuple[float, float],
                  ellipses: tuple, robot_radius: float) -> np.ndarray:
    """`planner.planning_mask` built from the reference masks."""
    mask = blocked_mask(grid, robot_radius, tuple(ellipses))
    cell = grid.cell_index(*start)
    if ellipses and cell is not None and mask[cell]:
        static = inflated_blocked_mask(grid, robot_radius)
        if not static[cell]:
            _carve_escape(mask, static, *cell)
    return mask


def astar_on_mask(grid: OccupancyGrid, mask: np.ndarray,
                  start: tuple[float, float],
                  goal: tuple[float, float]) -> Trajectory | None:
    """8-connected A* over numpy arrays, with the turn-count tie-break;
    None unless the points lie in distinct free cells of `mask`."""
    res = grid.resolution
    cells = grid.cell_index(*start), grid.cell_index(*goal)
    if None in cells or any(mask[c] for c in cells) or cells[0] == cells[1]:
        return None
    (sy, sx), (gy, gx) = cells
    h, w = mask.shape

    g = np.full((h, w), np.inf)
    turns = np.full((h, w), np.inf)
    parent = np.full((h, w), -1, dtype=np.int32)
    parent_dir = np.full((h, w), -1, dtype=np.int8)
    g[sy, sx] = 0.0
    turns[sy, sx] = 0.0
    counter = 0
    heap = [(_octile(sx, sy, gx, gy), 0.0, counter, sx, sy)]
    closed = np.zeros((h, w), dtype=bool)
    while heap:
        _, _, _, cx, cy = heapq.heappop(heap)
        if closed[cy, cx]:
            continue
        closed[cy, cx] = True
        if (cy, cx) == (gy, gx):
            break
        base_g = g[cy, cx]
        base_t = turns[cy, cx]
        pdir = parent_dir[cy, cx]
        for mi, (dx, dy, cost) in enumerate(_MOVES):
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < w and 0 <= ny < h) or mask[ny, nx] or closed[ny, nx]:
                continue
            ng = base_g + cost
            nt = base_t + (0.0 if pdir in (-1, mi) else 1.0)
            if ng < g[ny, nx] - 1e-12 or (ng < g[ny, nx] + 1e-12 and nt < turns[ny, nx]):
                g[ny, nx] = ng
                turns[ny, nx] = nt
                parent[ny, nx] = cy * w + cx
                parent_dir[ny, nx] = mi
                counter += 1
                heapq.heappush(heap, (ng + _octile(nx, ny, gx, gy), nt, counter, nx, ny))
    if not closed[gy, gx]:
        return None

    cells = []
    cur = gy * w + gx
    while cur != -1:
        cells.append(divmod(cur, w))
        cur = int(parent[cells[-1][0], cells[-1][1]])
    cells.reverse()
    positions = np.array([[(ix + 0.5) * res, (iy + 0.5) * res] for iy, ix in cells])
    return Trajectory(positions)


def dijkstra_cost(grid: OccupancyGrid, mask: np.ndarray,
                  start: tuple[float, float],
                  goal: tuple[float, float]) -> float:
    """Plain Dijkstra path cost in cell units; oracle for A* optimality."""
    sy, sx = grid.cell_index(*start)
    gy, gx = grid.cell_index(*goal)
    h, w = mask.shape
    dist = np.full((h, w), np.inf)
    dist[sy, sx] = 0.0
    heap = [(0.0, sx, sy)]
    while heap:
        d, cx, cy = heapq.heappop(heap)
        if d > dist[cy, cx]:
            continue
        if (cy, cx) == (gy, gx):
            return d
        for dx, dy, cost in _MOVES:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < w and 0 <= ny < h and not mask[ny, nx]:
                nd = d + cost
                if nd < dist[ny, nx]:
                    dist[ny, nx] = nd
                    heapq.heappush(heap, (nd, nx, ny))
    return math.inf


def mark_explored(grid: OccupancyGrid, explored: np.ndarray, x: float, y: float,
                  heading: float, sensor_range: float, fov: float) -> None:
    """Per-ray visibility walk: mark cells until the first static hit or the
    first step off the map."""
    start = grid.cell_index(x, y)
    if start is None:
        raise ValueError("robot pose outside map")
    res = grid.resolution
    n_rays = max(8, int(math.ceil(fov * sensor_range / (0.5 * res))))
    angles = heading + np.linspace(-fov / 2.0, fov / 2.0, n_rays)
    steps = np.arange(0.0, sensor_range + res, 0.5 * res)
    explored[start] = True
    for ang in angles:
        xs = x + steps * math.cos(ang)
        ys = y + steps * math.sin(ang)
        for px, py in zip(xs.tolist(), ys.tolist()):
            cell = grid.cell_index(px, py)
            if cell is None:
                break
            explored[cell] = True
            if grid.cells[cell] == STATIC:
                break


def raycast_distance(grid: OccupancyGrid, x: float, y: float, angle: float,
                     max_range: float | None = None) -> float:
    """Half-cell walk through `state_at`; oracle for `gridmap.raycast_distance`."""
    step = grid.resolution * 0.5
    limit = max_range if max_range is not None else grid.width_m + grid.height_m
    dx, dy = math.cos(angle), math.sin(angle)
    d = step
    while d <= limit:
        if grid.state_at(x + d * dx, y + d * dy) == STATIC:
            return d
        d += step
    return limit


def stock_candidates(grid: OccupancyGrid, mx: float, my: float,
                     mo_radius: float,
                     search_radius: float) -> list[tuple[float, int, int]]:
    """Per-cell scan of the box around (mx, my) for stock cells, nearest
    first; with `clears_path`, oracle for `removal._stock_candidates`."""
    res = grid.resolution
    candidates: list[tuple[float, int, int]] = []
    r_cells = int(math.ceil(search_radius / res))
    center = grid.cell_index(mx, my)
    if center is None:
        return candidates
    ciy, cix = center
    for iy in range(max(0, ciy - r_cells), min(grid.height_cells, ciy + r_cells + 1)):
        for ix in range(max(0, cix - r_cells), min(grid.width_cells, cix + r_cells + 1)):
            if grid.cells[iy, ix] != FREE:
                continue
            x, y = grid.cell_center(iy, ix)
            dist = math.hypot(x - mx, y - my)
            if dist > search_radius or dist < 2.0 * res:
                continue
            candidates.append((dist, iy, ix))
    candidates.sort()
    static_clear = ~inflated_blocked_mask(grid, mo_radius)
    return [c for c in candidates if static_clear[c[1], c[2]]]


def clears_path(path_pts: np.ndarray, x: float, y: float,
                clearance: float) -> bool:
    """Whether (x, y) keeps `clearance` from every waypoint of `path_pts`;
    the per-cell clearance test of the stock search."""
    return len(path_pts) == 0 or not np.min(
        np.linalg.norm(path_pts - np.array([x, y]), axis=1)) < clearance


def stock_bands(grid: OccupancyGrid, mx: float, my: float, mo_radius: float,
                inner: float, search_radius: float, path_pts: np.ndarray,
                clearance: float) -> list[list[int]]:
    """Per-cell scan for `removal._fitting_bands`: the flat indices of the
    free, statically clear cells of the box whose squared distance lies in
    [inner**2 * (1 - 1e-9), search_radius**2 * (1 + 1e-9)], sorted by
    squared distance with a stable sort of the row-major scan, cut where it
    grows by more than a relative 1e-9, and filtered by `clears_path`;
    bands left empty are dropped."""
    res = grid.resolution
    h, w = grid.cells.shape
    r_cells = int(math.ceil(search_radius / res))
    center = grid.cell_index(mx, my)
    if center is None:
        return []
    ciy, cix = center
    static_clear = ~inflated_blocked_mask(grid, mo_radius)
    low = inner * inner * (1.0 - 1e-9)
    high = search_radius * search_radius * (1.0 + 1e-9)
    scan = []
    for iy in range(max(0, ciy - r_cells), min(h, ciy + r_cells + 1)):
        for ix in range(max(0, cix - r_cells), min(w, cix + r_cells + 1)):
            if grid.cells[iy, ix] != FREE or not static_clear[iy, ix]:
                continue
            x, y = grid.cell_center(iy, ix)
            dx, dy = x - mx, y - my
            d2 = dx * dx + dy * dy
            if low <= d2 <= high:
                scan.append((d2, iy, ix))
    scan.sort(key=lambda c: c[0])
    bands: list[list[int]] = []
    prev = None
    for d2, iy, ix in scan:
        if prev is None or d2 - prev > 1e-9 * d2:
            bands.append([])
        prev = d2
        if clears_path(path_pts, *grid.cell_center(iy, ix), clearance):
            bands[-1].append(iy * w + ix)
    return [band for band in bands if band]


def estimate_removal_time(grid, mean, mo_radius, robot_xy, blocked_path,
                          robot_radius, v_lin, v_rot, load_overhead,
                          unload_overhead, search_radius):
    """`removal.estimate_removal_time` over the per-cell candidate scan and
    the reference planner."""
    mx, my = mean
    path_pts = blocked_path.positions
    for _, iy, ix in stock_candidates(grid, mx, my, mo_radius, search_radius):
        stock = grid.cell_center(iy, ix)
        if not clears_path(path_pts, *stock, mo_radius + robot_radius):
            continue
        carry = plan_path(grid, (mx, my), stock, robot_radius)
        if carry is None:
            continue
        approach_len = float(np.linalg.norm(np.asarray(robot_xy) - np.array([mx, my])))
        carry_len = carry.total_length
        travel = (approach_len + 2.0 * carry_len) / v_lin
        t_mo = travel + math.pi / v_rot + load_overhead + unload_overhead
        return RemovalEstimate(t_mo, stock, carry_len)
    return None


def is_explored(grid: OccupancyGrid, explored: np.ndarray, x: float,
                y: float) -> bool:
    """Whether `explored` marks the cell at (x, y); off the map counts as
    explored."""
    cell = grid.cell_index(x, y)
    return cell is None or bool(explored[cell])


def trajectory_blockage_detail(pop, trajectory, grid, explored, r):
    """Arc length walked with one `np.linalg.norm` per step; oracle for
    `blockage.trajectory_blockage_detail`."""
    risks = []
    spacing = max(pop.mu, grid.resolution)
    next_at = 0.0
    travelled = 0.0
    prev = trajectory.positions[0]
    for idx in range(len(trajectory)):
        pos = trajectory.positions[idx]
        travelled += float(np.linalg.norm(pos - prev))
        prev = pos
        if travelled < next_at:
            continue
        if is_explored(grid, explored, pos[0], pos[1]):
            continue
        next_at = travelled + spacing
        width = raycast_width(grid, pos[0], pos[1],
                              float(trajectory.headings[idx]))
        if width is None:
            continue
        p_given = blockage.blockage_at_width(pop, width, r)
        p_here = (blockage.waypoint_presence_probability(pop, width)
                  if p_given > 0.0 else 0.0)
        risks.append(blockage.WaypointRisk(idx, float(pos[0]), float(pos[1]),
                                           width, p_given, p_here))
    return risks


def trajectory_blockage(pop, trajectory, grid, explored, r) -> float:
    """Unmemoized score over the reference walk; oracle for
    `blockage.trajectory_blockage`."""
    survive = 1.0
    for wr in trajectory_blockage_detail(pop, trajectory, grid, explored, r):
        survive *= 1.0 - wr.p_block
    return min(max(1.0 - survive, 0.0), 1.0)


def sample_diameters(pop, n: int, rng: np.random.Generator) -> np.ndarray:
    """Obstacle diameters drawn from the population truncated to (0, inf),
    by rejection."""
    if pop.sigma == 0.0:
        return np.full(n, pop.mu)
    out = np.empty(n)
    filled = 0
    while filled < n:
        draw = rng.normal(pop.mu, pop.sigma, size=n - filled)
        draw = draw[draw > 0.0]
        out[filled:filled + len(draw)] = draw
        filled += len(draw)
    return out


def sampled_blockage_at_width(pop, width: float, r: float,
                              n_samples: int = 10_000, seed: int = 0) -> float:
    """`blockage.blockage_at_width` as the mean over seeded diameter draws."""
    l_mo = sample_diameters(pop, n_samples, np.random.default_rng(seed))
    p = np.zeros_like(l_mo)
    middle = (l_mo > width - 4.0 * r) & (l_mo < width - 2.0 * r)
    p[middle] = np.clip(4.0 * r / (width - l_mo[middle]) - 1.0, 0.0, 1.0)
    p[(l_mo >= width - 2.0 * r) & (l_mo < width)] = 1.0
    return float(p.mean())


def beta_mean(belief: BetaBelief) -> float:
    """Mean of a success-rate belief."""
    return belief.alpha / (belief.alpha + belief.beta)


def load_glr_model(path) -> GlrModel:
    """The model a `GlrModel.save` file holds."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "glr-model v1":
        raise ValueError("not a glr model file")
    fields: dict[str, list[list[float]]] = {}
    for line in lines[1:]:
        key, *vals = line.split()
        fields.setdefault(key, []).append([float(v) for v in vals])
    return GlrModel(
        w_mean=np.array(fields["w_mean"][0]),
        w_cov=np.array(fields["w_cov_row"]),
        noise_var=fields["noise_var"][0][0],
        feat_mean=np.array(fields["feat_mean"][0]),
        feat_std=np.array(fields["feat_std"][0]),
    )


def update_belief(belief: BetaBelief, success: bool) -> BetaBelief:
    """One load's update of a success-rate belief; the episode's load counts
    added to its prior must equal these updates made load by load."""
    if success:
        return BetaBelief(belief.alpha + 1.0, belief.beta)
    return BetaBelief(belief.alpha, belief.beta + 1.0)


def segment(trajectory: Trajectory, i: int, j: int) -> Trajectory:
    """Waypoints i..j inclusive as a trajectory of their own, headings
    recomputed."""
    return Trajectory(trajectory.positions[i:j + 1].copy())


def motion_time(trajectory: Trajectory, v_lin: float, v_rot: float) -> float:
    """Traversal time: length at v_lin plus accumulated turning at v_rot,
    the turns added left to right (the builtin sum of floats is compensated
    from Python 3.12 on and would round differently)."""
    turn = 0.0
    for t in observation.turn_angles(trajectory.headings).tolist():
        turn += t
    return trajectory.total_length / v_lin + turn / v_rot


def generate_timing_dataset(grid: OccupancyGrid, robot_radius: float,
                            v_lin: float, v_rot: float, n_rows: int,
                            seed: int, noise_sigma: float) -> TimingDataset:
    """Each row from a trajectory of its own, built with `segment` and timed
    by `motion_time`; oracle for `simulator.generate_timing_dataset`, which
    draws from the rng in the same order."""
    rng = np.random.default_rng(seed)
    mask = planner.blocked_mask(grid, robot_radius)
    free_iy, free_ix = np.nonzero(~mask)
    res = grid.resolution
    paths = []
    guard = 0
    while len(paths) < _N_BASE_PATHS and guard < _N_BASE_PATHS * 10:
        guard += 1
        i, j = rng.integers(0, len(free_iy), size=2)
        if i == j:
            continue
        start = (free_ix[i] + 0.5) * res, (free_iy[i] + 0.5) * res
        goal = (free_ix[j] + 0.5) * res, (free_iy[j] + 0.5) * res
        traj = planner.plan_path(grid, start, goal, robot_radius)
        if traj is not None and traj.total_length >= 2.0:
            paths.append(traj)
    feats, durs = [], []
    while len(durs) < n_rows:
        traj = paths[int(rng.integers(0, len(paths)))]
        a, b = sorted(rng.integers(0, len(traj), size=2))
        if b - a < 2:
            continue
        seg = segment(traj, int(a), int(b))
        if seg.total_length < 1.0:
            continue
        f = extract_features(seg)
        t_true = motion_time(seg, v_lin, v_rot)
        t_obs = t_true * max(1.0 + noise_sigma * rng.standard_normal(), 0.1)
        feats.append([f.f_l, f.f_s, f.f_v])
        durs.append(t_obs)
    return TimingDataset(np.array(feats), np.array(durs))
