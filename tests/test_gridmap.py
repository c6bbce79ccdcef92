"""Occupancy grid: file format, ray casting, widths, exploration, area."""

import copy
import importlib
import math
import pickle
import pkgutil
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import empty_grid, grid_from_ascii
import namoplan
from namoplan import gridmap, scenario_path
from namoplan.blockage import _unexplored
from namoplan.gridmap import (FREE, STATIC, OccupancyGrid, clear_memos,
                              free_area, inflated_blocked_mask, mark_explored,
                              raycast_distance, raycast_width)
from namoplan.planner import Trajectory, plan_path
from namoplan.simulator import RobotConfig
from oracles import is_explored

ROBOT = RobotConfig()

# -- construction and file format --------------------------------------


def test_empty_dimensions():
    g = empty_grid(30, 20, 0.1)
    assert g.width_cells == 30 and g.height_cells == 20
    assert g.width_m == pytest.approx(3.0)
    assert g.height_m == pytest.approx(2.0)


def test_invalid_resolution():
    with pytest.raises(ValueError):
        empty_grid(5, 5, 0.0)


def test_text_roundtrip(tmp_path):
    g = grid_from_ascii("""
....#
.##.#
.....
""")
    path = tmp_path / "m.map"
    g.save(path)
    loaded = OccupancyGrid.load(path)
    assert loaded.resolution == g.resolution
    assert np.array_equal(loaded.cells, g.cells)


def test_text_header():
    g = empty_grid(4, 3, 0.05)
    assert g.to_text().splitlines()[0] == "4 3 0.05"


@pytest.mark.parametrize("bad", [
    "",  # no header
    "x y z\n....\n",  # unparsable header
    "4 2 0.1\n....\n",  # missing row
    "4 2 0.1\n....\n...\n",  # short row
    "4 2 0.1\n....\n..q.\n",  # unknown char
    "4 2 0.1\n....\n..o.\n",  # 'o' is not a cell character
    "3 2 nan\n...\n...\n",  # a resolution must be finite and positive
    "3 2 inf\n...\n...\n",
    "3 2 1e154\n...\n...\n",  # the map's area overflows
])
def test_malformed_maps_rejected(bad):
    with pytest.raises(ValueError):
        OccupancyGrid.from_text(bad)


def test_out_of_bounds_is_static():
    g = empty_grid(10, 10, 0.1)
    assert g.state_at(-0.05, 0.5) == STATIC
    assert g.state_at(0.5, 99.0) == STATIC
    seen = np.zeros(g.cells.shape, bool)
    assert is_explored(g, seen, -1.0, -1.0)  # outside counts as known


# -- the point-to-cell rule -------------------------------------------


def test_point_on_the_high_edge_is_off_the_map():
    # 17 cells of 0.1 m make a map 1.7000000000000002 m wide, so 1.7 lies
    # inside it in metres, but 1.7 / 0.1 is 17.0: one column past the last.
    g = empty_grid(17, 17, 0.1)
    assert g.cell_index(1.7, 0.55) is None
    assert g.state_at(1.7, 0.55) == STATIC and not g.is_free(1.7, 0.55)
    # The ray's first half-cell step lands there, off the map.
    assert raycast_distance(g, 1.65, 0.55, 0.0, 0.05) == 0.05


def _coordinate(n: int, res: float):
    """A coordinate along an axis of n cells: a cell edge, 0 and the map's
    far side included, one a ULP to either side of one, or any point up
    to a cell off either side."""
    edges = st.integers(-1, n + 1).map(lambda k: k * res)
    near = st.tuples(edges, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda e: e[0] if e[1] is None else math.nextafter(e[0], e[1]))
    return st.one_of(near, st.floats(-res, (n + 1) * res))


@st.composite
def _maps_and_points(draw):
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    res = draw(st.sampled_from([0.1, 0.05, 0.07, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = OccupancyGrid(res, (rng.random((h, w)) < 0.3).astype(np.uint8))
    points = draw(st.lists(st.tuples(_coordinate(w, res), _coordinate(h, res)),
                           min_size=2, max_size=8))
    return grid, points, rng.random((h, w)) < 0.5


@given(_maps_and_points())
def test_every_layer_maps_a_point_to_the_same_cell(case):
    """On borderless maps, where points reach the edges, every consumer of
    a point's cell agrees with `cell_index`: the same cell, or off the
    map. Nothing raises IndexError, and no flat index wraps into another
    row."""
    grid, points, explored = case
    h, w = grid.cells.shape
    res = grid.resolution
    for iy in range(h):
        for ix in range(w):
            assert grid.cell_index(*grid.cell_center(iy, ix)) == (iy, ix)
    cells = [grid.cell_index(x, y) for x, y in points]
    for (x, y), cell in zip(points, cells):
        if cell is not None:
            assert cell == (math.floor(y / res), math.floor(x / res))
        assert grid.state_at(x, y) == (STATIC if cell is None
                                       else grid.cells[cell])
    xs, ys = np.array(points).T
    assert grid.flat_cells(xs, ys).tolist() == [
        -1 if c is None else c[0] * w + c[1] for c in cells]
    # A trajectory's waypoint is unexplored when its cell is.
    route = Trajectory(points)
    assert _unexplored(grid, explored, route).tolist() == [
        c is not None and not explored[c] for c in cells]
    open_grid = empty_grid(w, h, res)
    for (x, y), cell in zip(points, cells):
        assert raycast_distance(grid, x, y, 0.3) == \
            oracles.raycast_distance(grid, x, y, 0.3)
        seen, want = np.zeros((2, h, w), bool)
        if cell is None:
            with pytest.raises(ValueError):
                mark_explored(grid, seen, x, y, 0.0, 2 * res, 2 * math.pi)
        else:
            mark_explored(grid, seen, x, y, 0.0, 2 * res, 2 * math.pi)
            oracles.mark_explored(grid, want, x, y, 0.0, 2 * res, 2 * math.pi)
            assert seen[cell] and np.array_equal(seen, want)
        # Planned from or to a point, a route ends at its cell's center.
        far = (0, 0) if cell != (0, 0) else (h - 1, w - 1)
        other = open_grid.cell_center(*far)
        there = plan_path(open_grid, (x, y), other, 0.0)
        back = plan_path(open_grid, other, (x, y), 0.0)
        if cell is None or cell == far:
            assert there is None and back is None
        else:
            center = open_grid.cell_center(*cell)
            assert tuple(there.positions[0]) == center
            assert tuple(back.positions[-1]) == center


# -- ray casting and widths --------------------------------------------


def test_raycast_hits_wall():
    g = grid_from_ascii("." * 20 + "\n" + "." * 19 + "#")
    # wall cell spans x in [1.9, 2.0) on row y in [0.1, 0.2)
    d = raycast_distance(g, 0.05, 0.15, 0.0)
    assert d == pytest.approx(1.85, abs=g.resolution)


def test_raycast_respects_max_range():
    g = empty_grid(100, 100, 0.1)
    assert raycast_distance(g, 5.0, 5.0, 1.0, max_range=2.0) == pytest.approx(2.0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IndexError:
        return IndexError


def test_raycast_matches_state_at_walk():
    rng = np.random.default_rng(5)
    angles = [k * math.pi / 4 for k in range(-4, 5)]
    for trial in range(60):
        cells = np.zeros((40, 50), np.uint8)
        cells[rng.random((40, 50)) < rng.uniform(0.0, 0.2)] = STATIC
        g = OccupancyGrid(0.1, cells)
        if trial % 3 == 0:
            # Origins on and just outside the border, where the first
            # samples may leave the map or land on its last row or column.
            x = rng.choice([0.0, rng.uniform(-0.1, 0.2), rng.uniform(4.8, 5.1), 5.0])
            y = rng.choice([0.0, rng.uniform(-0.1, 0.2), rng.uniform(3.8, 4.1), 4.0])
        else:
            x, y = rng.uniform(0.0, 5.0), rng.uniform(0.0, 4.0)
        for angle in angles + list(rng.uniform(-math.pi, math.pi, 12)):
            for max_range in (None, float(rng.uniform(0.0, 6.0)), 0.04):
                args = (g, x, y, angle, max_range)
                assert _outcome(raycast_distance, *args) == \
                    _outcome(oracles.raycast_distance, *args), args[1:]


def test_corridor_width_two_meters(corridor_grid):
    w = raycast_width(corridor_grid, 5.0, 2.0, 0.0)
    assert w == pytest.approx(2.0, abs=corridor_grid.resolution)


def test_corridor_width_1p2_at_fine_resolution():
    # 1.2 m corridor built at 0.05 m: 24 free rows between walls.
    cells = np.full((40, 80), STATIC, np.uint8)
    cells[8:32, :] = FREE
    g = OccupancyGrid(0.05, cells)
    w = raycast_width(g, 2.0, 1.0, 0.0)
    assert w == pytest.approx(1.2, abs=0.05)


def test_width_in_open_room_bounded_by_span():
    g = empty_grid(100, 100, 0.1)  # 10 m x 10 m
    w = raycast_width(g, 5.0, 5.0, 0.0)
    assert 2.0 <= w <= 10.0 + 2 * g.resolution


def test_width_symmetric_under_heading_flip(corridor_grid):
    w1 = raycast_width(corridor_grid, 4.3, 1.7, 0.3)
    w2 = raycast_width(corridor_grid, 4.3, 1.7, 0.3 + math.pi)
    assert w1 == pytest.approx(w2, abs=1e-9)


def test_width_query_inside_obstacle_rejected(corridor_grid):
    # Inside a static cell and off the map there is no corridor to measure.
    for x, y in [(5.0, 0.5), (-0.05, 2.0), (5.0, corridor_grid.height_m)]:
        assert raycast_width(corridor_grid, x, y, 0.0) is None


# -- free area ----------------------------------------------------------


def test_free_area_all_free():
    g = empty_grid(10, 10, 1.0)
    assert free_area(g) == pytest.approx(100.0)


def test_free_area_counts_conversions():
    cells = np.zeros((10, 10), np.uint8)
    cells[:3, :10] = STATIC  # 30 cells
    g = OccupancyGrid(1.0, cells)
    assert free_area(g) == pytest.approx(70.0)


def test_free_area_decrement_per_cell():
    cells = np.zeros((20, 20), np.uint8)
    before = free_area(OccupancyGrid(0.1, cells))
    cells[4, 7] = STATIC
    assert before - free_area(OccupancyGrid(0.1, cells)) == pytest.approx(0.1 ** 2)


def test_warehouse_map_free_area_stable():
    g1 = OccupancyGrid.load(scenario_path("warehouse.map"))
    g2 = OccupancyGrid.load(scenario_path("warehouse.map"))
    assert free_area(g1) == free_area(g2) > 0.0


# -- exploration --------------------------------------------------------


def test_mark_explored_open_disk():
    g = empty_grid(100, 100, 0.1)
    seen = np.zeros(g.cells.shape, bool)
    mark_explored(g, seen, 5.0, 5.0, 0.0, sensor_range=2.0, fov=2 * math.pi)
    # a cell well inside the disk, ahead of the robot
    assert is_explored(g, seen, 6.5, 5.0)
    # a cell far outside the disk
    assert not is_explored(g, seen, 9.5, 9.5)


def test_mark_explored_occlusion():
    g = grid_from_ascii("""
..........
....#.....
..........
""")
    # robot left of the wall cell at x in [0.4, 0.5), y in [0.1, 0.2)
    seen = np.zeros(g.cells.shape, bool)
    mark_explored(g, seen, 0.15, 0.15, 0.0, sensor_range=0.9, fov=0.2)
    assert is_explored(g, seen, 0.45, 0.15)  # the wall itself is seen
    assert not is_explored(g, seen, 0.75, 0.15)  # cell behind the wall is not


def test_mark_explored_monotone():
    g = empty_grid(60, 60, 0.1)
    seen = np.zeros(g.cells.shape, bool)
    counts = []
    for x in (1.0, 2.0, 3.0):
        mark_explored(g, seen, x, 3.0, 0.0, sensor_range=1.5, fov=math.pi / 2)
        counts.append(int(seen.sum()))
    assert counts == sorted(counts)


def test_mark_explored_matches_per_ray_walk():
    rng = np.random.default_rng(21)
    for trial in range(40):
        cells = np.zeros((40, 50), np.uint8)
        cells[rng.random((40, 50)) < rng.uniform(0.0, 0.15)] = STATIC
        g = OccupancyGrid(0.1, cells)
        if trial % 4 == 0:
            # Hug the border and look outward: rays leave the map, some at
            # small negative coordinates, which lie in cell -1, off it.
            x = rng.choice([rng.uniform(0.0, 0.2), rng.uniform(4.8, 5.0)])
            y = rng.choice([rng.uniform(0.0, 0.2), rng.uniform(3.8, 4.0)])
        else:
            x, y = rng.uniform(0.0, 5.0), rng.uniform(0.0, 4.0)
        heading = rng.uniform(-math.pi, math.pi)
        fov = 2 * math.pi if trial % 3 == 0 else rng.uniform(0.1, 2 * math.pi)
        sensor_range = rng.uniform(0.3, 3.0)
        want, got = np.zeros((2, 40, 50), bool)
        oracles.mark_explored(g, want, x, y, heading, sensor_range, fov)
        mark_explored(g, got, x, y, heading, sensor_range, fov)
        assert np.array_equal(got, want), trial


def test_mark_explored_outside_map_rejected():
    g = empty_grid(10, 10, 0.1)
    with pytest.raises(ValueError):
        mark_explored(g, np.zeros(g.cells.shape, bool), -0.5, 0.5, 0.0,
                      ROBOT.sensor_range, ROBOT.sensor_fov)


# -- inflation ----------------------------------------------------------


def test_inflated_mask_blocks_near_wall(corridor_grid):
    mask = inflated_blocked_mask(corridor_grid, 0.3)
    iy, ix = corridor_grid.cell_index(5.0, 2.0)  # corridor center: clear
    assert not mask[iy, ix]
    iy, ix = corridor_grid.cell_index(5.0, 1.15)  # 0.15 m from the wall
    assert mask[iy, ix]


def test_inflated_mask_border_inflates_inward():
    g = empty_grid(50, 50, 0.1)
    mask = inflated_blocked_mask(g, 0.3)
    iy, ix = g.cell_index(0.15, 2.5)
    assert mask[iy, ix]
    iy, ix = g.cell_index(2.5, 2.5)
    assert not mask[iy, ix]


def test_inflated_mask_follows_cell_writes():
    cells = np.zeros((30, 30), np.uint8)
    g = OccupancyGrid(0.1, cells)
    iy, ix = g.cell_index(1.5, 1.5)
    assert not inflated_blocked_mask(g, 0.2)[iy, ix]
    # A write to the array the grid was built from reaches neither the grid
    # nor its cached mask; a grid built after it has a key and mask of its own.
    cells[iy, ix + 1] = STATIC
    assert g.cells[iy, ix + 1] == FREE and not inflated_blocked_mask(g, 0.2)[iy, ix]
    h = OccupancyGrid(0.1, cells)
    assert h.key != g.key and inflated_blocked_mask(h, 0.2)[iy, ix]
    assert np.array_equal(inflated_blocked_mask(h, 0.2),
                          oracles.inflated_blocked_mask(h, 0.2))


def test_inflated_mask_is_a_fresh_copy():
    g = empty_grid(30, 30, 0.1)
    first = inflated_blocked_mask(g, 0.2)
    first[:] = True
    assert not inflated_blocked_mask(g, 0.2)[15, 15]


def test_loaded_grid_inflation_is_keyed_on_the_map(monkeypatch):
    clear_memos()
    monkeypatch.setattr(gridmap._INFLATION_CACHE, "size", 3)
    grids = [OccupancyGrid.load(scenario_path(name))
             for name in ("room.map", "warehouse.map")]
    queries = [(g, radius) for g in grids for radius in (0.2, 0.25, 0.35)]
    for i, (g, radius) in enumerate(queries + queries[::-1]):
        mask = inflated_blocked_mask(g, radius)
        assert np.array_equal(mask, oracles.inflated_blocked_mask(g, radius))
        mask[:] = True  # a fresh copy: the cached mask is untouched
        assert len(gridmap._INFLATION_CACHE) == min(i + 1, 3)
        # The key names the map by its 16-byte digest, never by its cells.
        assert set(gridmap._INFLATION_CACHE) <= {(h.key, r) for h, r in queries}


# -- the process-wide memos ---------------------------------------------


def test_every_module_level_ordered_dict_is_a_registered_memo():
    memos = {}
    for info in pkgutil.iter_modules(namoplan.__path__):
        module = importlib.import_module(f"namoplan.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, OrderedDict):
                memos[f"{info.name}.{name}"] = value
    assert set(memos) == {
        "gridmap._VISIBILITY_MEMO", "gridmap._RAY_MEMO",
        "gridmap._INFLATION_CACHE", "blockage._BLOCKAGE_MEMO",
        "planner._PLAN_CACHE", "simulator._MODEL_CACHE", "simulator._TREE"}
    for name, memo in memos.items():
        assert isinstance(memo, gridmap.Memo), name
        assert any(memo is m for m in gridmap._MEMOS), name
    assert len(gridmap._MEMOS) == len(memos)


# -- memoized ray casts --------------------------------------------------


def _free_points(grid, rng, n):
    free = np.argwhere(grid.cells == FREE)
    picks = free[rng.integers(len(free), size=n)]
    jitter = rng.uniform(0.0, grid.resolution, size=(n, 2))
    return [((ix + jx) * grid.resolution, (iy + jy) * grid.resolution)
            for (iy, ix), (jx, jy) in zip(picks, jitter)]


def _with_repeats(queries, rng):
    """The queries, then 20 of them again in random order."""
    return queries + [queries[i] for i in rng.integers(len(queries), size=20)]


@pytest.mark.parametrize("name", ["room.map", "warehouse.map"])
def test_memoized_mark_explored_matches_oracle(name):
    clear_memos()
    grid = OccupancyGrid.load(scenario_path(name))
    rng = np.random.default_rng(8)
    poses = [(x, y, rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 5.0),
              rng.uniform(0.2, 2 * math.pi)) for x, y in _free_points(grid, rng, 20)]
    for pose in _with_repeats(poses, rng):
        got, want = np.zeros((2, *grid.cells.shape), bool)
        mark_explored(grid, got, *pose)
        oracles.mark_explored(grid, want, *pose)
        assert np.array_equal(got, want), pose
    assert len(gridmap._VISIBILITY_MEMO) == len(poses)


@pytest.mark.parametrize("name", ["room.map", "warehouse.map"])
def test_memoized_raycast_matches_oracle(name):
    clear_memos()
    grid = OccupancyGrid.load(scenario_path(name))
    want = copy.deepcopy(grid)
    rng = np.random.default_rng(9)
    rays = [(x, y, rng.uniform(-math.pi, math.pi),
             None if i % 2 else rng.uniform(0.1, 6.0))
            for i, (x, y) in enumerate(_free_points(grid, rng, 40))]
    for ray in _with_repeats(rays, rng):
        assert raycast_distance(grid, *ray) == oracles.raycast_distance(want, *ray)
    assert len(gridmap._RAY_MEMO) == len(rays)


def test_cells_are_a_read_only_copy_named_by_the_key(tmp_path):
    empty_grid(6, 4, 0.1).save(tmp_path / "m.map")
    grid = OccupancyGrid.load(tmp_path / "m.map")
    with pytest.raises(ValueError):
        grid.cells[1, 1] = STATIC
    cells = np.zeros((4, 6), np.uint8)
    built = OccupancyGrid(0.1, cells)
    assert built.key == grid.key and not built.cells.flags.writeable
    cells[1, 1] = STATIC
    assert built.cells[1, 1] == FREE
    assert OccupancyGrid(0.1, cells).key != grid.key
    assert OccupancyGrid(0.05, np.zeros((4, 6))).key != grid.key
    assert OccupancyGrid(0.1, np.zeros((6, 4))).key != grid.key
    # Grids are named by their keys: `==` is identity.
    twin = OccupancyGrid(0.1, np.zeros((4, 6)))
    assert twin.key == built.key and twin != built and twin == twin


def test_keyed_grid_stays_read_only_through_pickling(tmp_path):
    empty_grid(6, 4, 0.1).save(tmp_path / "m.map")
    grid = OccupancyGrid.load(tmp_path / "m.map")
    back = pickle.loads(pickle.dumps(grid))
    assert back.key == grid.key and np.array_equal(back.cells, grid.cells)
    assert not back.cells.flags.writeable
    assert vars(back).keys() == vars(grid).keys()


def _wall_grid() -> OccupancyGrid:
    cells = np.zeros((20, 30), np.uint8)
    cells[3:17, 15] = STATIC
    return OccupancyGrid(0.1, cells)


_poses = st.tuples(st.floats(0.0, 2.99), st.floats(0.0, 1.99),
                   st.floats(-math.pi, math.pi), st.floats(0.1, 3.0),
                   st.floats(0.1, 2 * math.pi))


@given(st.lists(_poses, min_size=1, max_size=6))
def test_mark_explored_only_sets_cells(poses):
    """The mask never loses a cell, so its count grows exactly when it
    changes: the episode's blockage memo keys on that count."""
    grid = _wall_grid()
    seen = np.zeros(grid.cells.shape, bool)
    for pose in poses:
        before = seen.copy()
        mark_explored(grid, seen, *pose)
        assert not (before & ~seen).any()
        grew = np.count_nonzero(seen) > np.count_nonzero(before)
        assert grew == (not np.array_equal(seen, before))


def test_memos_stay_within_their_bounds(monkeypatch):
    clear_memos()
    monkeypatch.setattr(gridmap._VISIBILITY_MEMO, "size", 3)
    monkeypatch.setattr(gridmap._RAY_MEMO, "size", 5)
    grid = OccupancyGrid.load(scenario_path("warehouse.map"))
    want = copy.deepcopy(grid)
    rng = np.random.default_rng(10)
    points = _free_points(grid, rng, 12)
    for i, (x, y) in enumerate(_with_repeats(points, rng)):
        got, expected = np.zeros((2, *grid.cells.shape), bool)
        mark_explored(grid, got, x, y, 0.5, 2.0, ROBOT.sensor_fov)
        oracles.mark_explored(want, expected, x, y, 0.5, 2.0, ROBOT.sensor_fov)
        assert np.array_equal(got, expected)
        assert raycast_distance(grid, x, y, 1.0) == oracles.raycast_distance(
            want, x, y, 1.0)
        assert len(gridmap._VISIBILITY_MEMO) == min(i + 1, 3)
        assert len(gridmap._RAY_MEMO) == min(i + 1, 5)
    # The most recently used queries are the ones kept.
    x, y = points[0]
    mark_explored(grid, np.zeros(grid.cells.shape, bool), x, y, 0.5, 2.0,
                  ROBOT.sensor_fov)
    assert next(reversed(gridmap._VISIBILITY_MEMO))[1:3] == (x, y)
