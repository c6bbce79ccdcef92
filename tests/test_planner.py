"""A* planning: optimality against Dijkstra, ellipse obstacles, headings."""

import math
from collections import OrderedDict

import numpy as np
import pytest

import oracles
from conftest import grid_from_ascii, keyed
from namoplan import planner
from namoplan.gridmap import STATIC, GridPosition, OccupancyGrid
from namoplan.planner import (Ellipse, EndpointBlocked, PlanRequest, Trajectory,
                              blocked_mask, plan_path)
from oracles import dijkstra_cost

# -- trajectory basics --------------------------------------------------


def test_trajectory_needs_two_waypoints():
    with pytest.raises(ValueError):
        Trajectory(np.array([[1.0, 1.0]]))


def test_total_length_sums_gaps():
    t = Trajectory(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    assert t.total_length == pytest.approx(7.0, rel=1e-9)


def _per_step_norms(positions):
    return [float(np.linalg.norm(p1 - p0))
            for p0, p1 in zip(positions[:-1], positions[1:])]


@pytest.mark.parametrize("res", [0.05, 0.1, 0.3])
def test_step_lengths_match_per_step_norm_between_neighbouring_cells(res):
    # Every other step moves from a random cell far from the origin to one
    # of its 8 neighbours, where `np.linalg.norm(d, axis=1)` differs from
    # the 1-D norm on some steps.
    rng = np.random.default_rng(int(res * 100))
    moves = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                      if dx or dy])
    cells = rng.integers(100, 3000, (10_000, 2))
    pairs = np.stack([cells, cells + moves[rng.integers(0, 8, len(cells))]],
                     axis=1)
    t = Trajectory((pairs.reshape(-1, 2) + 0.5) * res)
    assert t.step_lengths == _per_step_norms(t.positions)


def test_step_lengths_match_per_step_norm_off_grid():
    rng = np.random.default_rng(5)
    walk = (rng.uniform(100.0, 1000.0, 2)
            + np.cumsum(rng.normal(0.0, 0.2, (20_000, 2)), axis=0))
    for positions in (walk, rng.uniform(-500.0, 500.0, (20_000, 2))):
        t = Trajectory(positions)
        assert t.step_lengths == _per_step_norms(t.positions)
        assert t.step_lengths is t.step_lengths


def test_headings_point_at_successor():
    t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert t.headings[0] == pytest.approx(0.0)
    assert t.headings[1] == pytest.approx(math.pi / 2)
    # last waypoint inherits its predecessor's heading
    assert t.headings[2] == pytest.approx(math.pi / 2)


def test_segment_slices_inclusive():
    t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    seg = t.segment(1, 3)
    assert len(seg) == 3
    assert seg.start[0] == pytest.approx(1.0)
    assert seg.goal[0] == pytest.approx(3.0)


# -- straight-line planning ---------------------------------------------


def test_straight_path_eight_meters():
    g = OccupancyGrid.empty(100, 30, 0.1)
    traj = plan_path(g, PlanRequest(GridPosition(1.0, 1.5), GridPosition(9.0, 1.5)),
                     robot_radius=0.3)
    assert traj is not None
    assert traj.total_length == pytest.approx(8.0, abs=2 * g.resolution)
    # straight: every heading equal
    assert np.allclose(traj.headings, traj.headings[0])


def test_start_equals_goal_rejected():
    g = OccupancyGrid.empty(20, 20, 0.1)
    with pytest.raises(ValueError):
        plan_path(g, PlanRequest(GridPosition(1.0, 1.0), GridPosition(1.02, 1.04)),
                  robot_radius=0.1)


def test_endpoint_blocked_distinct_from_no_path():
    g = OccupancyGrid.empty(40, 40, 0.1)
    with pytest.raises(EndpointBlocked):
        plan_path(g, PlanRequest(GridPosition(0.1, 0.1), GridPosition(2.0, 2.0)),
                  robot_radius=0.3)


def test_no_path_when_walled_off():
    g = grid_from_ascii("""
..........
..........
..........
..........
##########
..........
..........
..........
..........
..........
""", resolution=0.5)
    traj = plan_path(g, PlanRequest(GridPosition(1.2, 1.2), GridPosition(1.2, 4.2)),
                     robot_radius=0.2)
    assert traj is None


def test_corridor_covered_by_ellipse_gives_no_path(corridor_grid):
    e = Ellipse(5.0, 2.0, 0.5, 1.2, 0.0)
    traj = plan_path(corridor_grid,
                     PlanRequest(GridPosition(1.0, 2.0), GridPosition(9.0, 2.0),
                                 (e,)),
                     robot_radius=0.3)
    assert traj is None


# -- optimality and safety ----------------------------------------------


def test_astar_matches_dijkstra_on_random_maps():
    rng = np.random.default_rng(4)
    for trial in range(25):
        g = OccupancyGrid.empty(40, 40, 0.1)
        blocks = rng.random((40, 40)) < 0.25
        g.cells[blocks] = STATIC
        mask = blocked_mask(g, 0.05)
        free = np.argwhere(~mask)
        if len(free) < 2:
            continue
        (sy, sx), (gy, gx) = free[rng.integers(0, len(free), 2)]
        if (sy, sx) == (gy, gx):
            continue
        start = GridPosition(*g.cell_center(sy, sx))
        goal = GridPosition(*g.cell_center(gy, gx))
        oracle = dijkstra_cost(g, mask, start, goal)
        traj = plan_path(g, PlanRequest(start, goal), 0.05)
        if traj is None:
            assert math.isinf(oracle)
        else:
            cost = traj.total_length / g.resolution
            assert cost == pytest.approx(oracle, abs=1e-6)


def test_adding_obstacle_never_shortens():
    g = OccupancyGrid.empty(60, 60, 0.1)
    req = PlanRequest(GridPosition(1.0, 3.0), GridPosition(5.0, 3.0))
    base = plan_path(g, req, 0.2)
    e = Ellipse(3.0, 3.0, 0.4, 0.4, 0.0)
    detour = plan_path(g, PlanRequest(req.start, req.goal, (e,)), 0.2)
    assert base is not None and detour is not None
    assert detour.total_length >= base.total_length - 1e-9


def test_waypoints_clear_of_static_cells():
    g = grid_from_ascii("""
....................
....................
.......####.........
.......####.........
....................
....................
""", resolution=0.25)
    traj = plan_path(g, PlanRequest(GridPosition(0.6, 0.8), GridPosition(4.4, 0.8)),
                     robot_radius=0.2)
    assert traj is not None
    statics = np.argwhere(g.cells == STATIC)
    centers = np.array([g.cell_center(iy, ix) for iy, ix in statics])
    for p in traj.positions:
        assert np.min(np.linalg.norm(centers - p, axis=1)) > 0.2


def test_consecutive_waypoints_adjacent():
    g = OccupancyGrid.empty(50, 50, 0.1)
    traj = plan_path(g, PlanRequest(GridPosition(1.0, 1.0), GridPosition(4.0, 3.0)),
                     robot_radius=0.2)
    gaps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
    assert np.all(gaps <= math.sqrt(2) * g.resolution + 1e-9)


# -- escape from a temporary ellipse ------------------------------------


def test_start_inside_ellipse_is_escapable():
    g = OccupancyGrid.empty(60, 60, 0.1)
    e = Ellipse(3.0, 3.0, 1.0, 1.0, 0.0)
    traj = plan_path(g, PlanRequest(GridPosition(3.2, 3.0), GridPosition(5.5, 3.0),
                                    (e,)),
                     robot_radius=0.2)
    assert traj is not None
    assert traj.goal[0] == pytest.approx(5.55, abs=g.resolution)


def test_start_inside_static_inflation_still_blocked():
    g = OccupancyGrid.empty(60, 60, 0.1)
    e = Ellipse(3.0, 0.5, 1.0, 1.0, 0.0)
    # start is inside the border inflation, not just the ellipse
    with pytest.raises(EndpointBlocked):
        plan_path(g, PlanRequest(GridPosition(3.0, 0.15), GridPosition(5.5, 3.0),
                                 (e,)),
                  robot_radius=0.3)


# -- pinned to the per-cell reference search ------------------------------


def _assert_same_plan(g, req, radius):
    """plan_path returns exactly the reference planner's waypoints, or raises
    EndpointBlocked exactly when it does."""
    try:
        want = oracles.plan_path(g, req, radius)
    except EndpointBlocked:
        with pytest.raises(EndpointBlocked):
            plan_path(g, req, radius)
        return "blocked"
    got = plan_path(g, req, radius)
    if want is None:
        assert got is None
        return "none"
    assert got is not None and np.array_equal(got.positions, want.positions)
    return "path"


def _random_requests(g, rng, n, ellipses=()):
    cells = [(iy, ix) for iy in range(g.height_cells) for ix in range(g.width_cells)]
    for _ in range(n):
        a, b = rng.choice(len(cells), size=2, replace=False)
        yield PlanRequest(GridPosition(*g.cell_center(*cells[a])),
                          GridPosition(*g.cell_center(*cells[b])), ellipses)


@pytest.mark.parametrize("density", [0.1, 0.2])
def test_plan_matches_reference_on_random_maps(density):
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(12):
        g = OccupancyGrid.empty(36, 28, 0.1)
        g.cells[rng.random((28, 36)) < density] = STATIC
        for req in _random_requests(g, rng, 6):
            seen.add(_assert_same_plan(g, req, 0.1))
    assert seen == {"blocked", "none", "path"}


def test_plan_matches_reference_on_open_grid_ties():
    # Many equal-cost routes: only the turn-count tie-break and the heap
    # order pick one, so any drift in either shows up here.
    rng = np.random.default_rng(12)
    g = OccupancyGrid.empty(50, 40, 0.1)
    for req in _random_requests(g, rng, 40):
        _assert_same_plan(g, req, 0.15)


def test_plan_matches_reference_with_ellipses():
    rng = np.random.default_rng(13)
    g = OccupancyGrid.empty(60, 50, 0.1)
    g.cells[rng.random((50, 60)) < 0.05] = STATIC
    for _ in range(8):
        ellipses = tuple(Ellipse(rng.uniform(0.5, 5.5), rng.uniform(0.5, 4.5),
                                 rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                                 rng.uniform(-math.pi, math.pi))
                         for _ in range(3))
        for req in _random_requests(g, rng, 5, ellipses):
            _assert_same_plan(g, req, 0.1)


def test_plan_matches_reference_from_inside_ellipse():
    rng = np.random.default_rng(14)
    g = OccupancyGrid.empty(60, 60, 0.1)
    g.cells[20:40, 45] = STATIC
    for _ in range(20):
        e = Ellipse(rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0),
                    rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2),
                    rng.uniform(-math.pi, math.pi))
        start = GridPosition(e.cx + rng.uniform(-0.3, 0.3),
                             e.cy + rng.uniform(-0.3, 0.3))
        req = PlanRequest(start, GridPosition(5.55, 5.55), (e,))
        assert _assert_same_plan(g, req, 0.2) == "path"


def test_plan_matches_reference_when_unreachable_or_blocked():
    g = OccupancyGrid.empty(40, 30, 0.1)
    g.cells[15, :] = STATIC
    below, above = GridPosition(2.0, 0.8), GridPosition(2.0, 2.5)
    assert _assert_same_plan(g, PlanRequest(below, above), 0.1) == "none"
    wall = GridPosition(2.0, 1.55)
    assert _assert_same_plan(g, PlanRequest(below, wall), 0.1) == "blocked"
    assert _assert_same_plan(g, PlanRequest(wall, below), 0.1) == "blocked"


def test_blocked_mask_matches_per_cell_rasterization():
    # Centers across and beyond the map on every side, so boxes are whole,
    # clipped, or wholly off the map (low side: negative slice stops).
    rng = np.random.default_rng(15)
    painted = 0
    for _ in range(30):
        g = OccupancyGrid.empty(int(rng.integers(20, 60)), int(rng.integers(20, 60)),
                                float(rng.choice([0.05, 0.1, 0.25])))
        g.cells[rng.random(g.cells.shape) < 0.05] = STATIC
        w, h = g.width_m, g.height_m
        ellipses = tuple(Ellipse(rng.uniform(-0.5 * w, 1.5 * w),
                                 rng.uniform(-0.5 * h, 1.5 * h),
                                 rng.uniform(0.0, 0.3 * w), rng.uniform(0.0, 0.3 * h),
                                 rng.uniform(-math.pi, math.pi))
                         for _ in range(int(rng.integers(1, 6))))
        r = float(rng.uniform(0.0, 0.3))
        got = blocked_mask(g, r, ellipses)
        assert np.array_equal(got, oracles.blocked_mask(g, r, ellipses))
        painted += np.count_nonzero(got & ~blocked_mask(g, r))
    assert painted > 0


@pytest.mark.parametrize("cx, cy", [(-3.0, 2.0), (2.0, -3.0), (-3.0, -3.0),
                                    (-0.2, 2.0), (2.0, -0.2), (9.0, 2.0)])
def test_blocked_mask_with_ellipse_off_the_map(cx, cy):
    g = OccupancyGrid.empty(40, 40, 0.1)
    e = Ellipse(cx, cy, 0.5, 0.3, 0.4)
    got = blocked_mask(g, 0.1, (e,))
    assert np.array_equal(got, oracles.blocked_mask(g, 0.1, (e,)))
    # Only an ellipse reaching into the map paints cells.
    painted = got & ~blocked_mask(g, 0.1)
    assert painted.any() == (cx == -0.2 or cy == -0.2)


# -- the shared search cache ---------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """An empty plan cache for the test, and the list of A* searches run."""
    monkeypatch.setattr(planner, "_PLAN_CACHE", OrderedDict())
    calls = []
    real = planner._astar_on_mask
    monkeypatch.setattr(planner, "_astar_on_mask",
                        lambda *a: calls.append(a[2:]) or real(*a))
    return calls


def test_cached_plans_match_reference_cold_and_warm(searches):
    rng = np.random.default_rng(21)
    for _ in range(3):
        g = OccupancyGrid.empty(40, 30, 0.1)
        g.cells[rng.random((30, 40)) < 0.08] = STATIC
        ellipse_sets = [()] + [
            tuple(Ellipse(rng.uniform(0.5, 3.5), rng.uniform(0.5, 2.5),
                          rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6),
                          rng.uniform(-math.pi, math.pi)) for _ in range(2))
            for _ in range(3)]
        # The same start and goal recur under every set of ellipses.
        pairs = [(r.start, r.goal) for r in _random_requests(g, rng, 5)]
        requests = [PlanRequest(a, b, e) for e in ellipse_sets for a, b in pairs]
        cold = [_assert_same_plan(g, r, 0.1) for r in requests]
        n_cold = len(searches)
        warm = [_assert_same_plan(g, r, 0.1) for r in requests]
        assert warm == cold and len(searches) == n_cold
    # Each mask got its own entry and search for a recurring start and goal.
    assert len(set(searches)) < len(searches) == len(planner._PLAN_CACHE)


def test_cache_stays_within_capacity(searches):
    g = OccupancyGrid.empty(30, 30, 0.1)
    goal = GridPosition(2.55, 2.55)
    starts = [GridPosition(*g.cell_center(iy, ix))
              for iy in range(2, 27) for ix in range(2, 9)]
    assert len(starts) > planner._PLAN_CACHE_SIZE
    first = plan_path(g, PlanRequest(starts[0], goal), 0.1)
    for start in starts[1:]:
        plan_path(g, PlanRequest(start, goal), 0.1)
        assert len(planner._PLAN_CACHE) <= planner._PLAN_CACHE_SIZE
        # A hit refreshes the first entry, so it outlives its neighbours.
        assert plan_path(g, PlanRequest(starts[0], goal), 0.1) is first
    assert len(planner._PLAN_CACHE) == planner._PLAN_CACHE_SIZE
    assert len(searches) == len(starts)
    plan_path(g, PlanRequest(starts[1], goal), 0.1)  # evicted, searched again
    assert len(searches) == len(starts) + 1


def test_cache_keeps_maps_of_one_shape_apart(searches):
    open_grid = OccupancyGrid.empty(40, 30, 0.1)
    walled = OccupancyGrid.empty(40, 30, 0.1)
    walled.cells[5:30, 20] = STATIC
    coarse = OccupancyGrid.empty(40, 30, 0.2)
    req = PlanRequest(GridPosition(0.55, 1.55), GridPosition(3.55, 1.55))
    got_open = plan_path(open_grid, req, 0.1)
    got_walled = plan_path(walled, req, 0.1)
    assert len(searches) == 2
    for g, got in ((open_grid, got_open), (walled, got_walled)):
        assert np.array_equal(got.positions, oracles.plan_path(g, req, 0.1).positions)
    assert not np.array_equal(got_walled.positions, got_open.positions)
    # The same mask and cells at twice the resolution and radius: a new
    # search, and waypoints twice as far apart.
    coarse_req = PlanRequest(GridPosition(1.1, 3.1), GridPosition(7.1, 3.1))
    wide = plan_path(coarse, coarse_req, 0.2)
    assert np.array_equal(planner.planning_mask(coarse, coarse_req, 0.2),
                          planner.planning_mask(open_grid, req, 0.1))
    assert len(searches) == 3
    assert np.array_equal(wide.positions, 2.0 * got_open.positions)


def test_cached_trajectory_is_read_only(searches):
    g = OccupancyGrid.empty(30, 20, 0.1)
    req = PlanRequest(GridPosition(0.55, 0.55), GridPosition(2.55, 1.55))
    traj = plan_path(g, req, 0.1)
    want = traj.positions.copy()
    with pytest.raises(ValueError):
        traj.positions[0, 0] = 9.0
    with pytest.raises(ValueError):
        traj.headings[0] = 9.0
    again = plan_path(g, req, 0.1)
    assert again is traj and np.array_equal(again.positions, want)
    assert len(searches) == 1


def test_endpoint_errors_are_never_cached(searches):
    g = OccupancyGrid.empty(20, 20, 0.1)
    g.cells[10, :] = STATIC
    wall, free = GridPosition(1.05, 1.05), GridPosition(0.55, 0.55)
    for _ in range(2):
        with pytest.raises(EndpointBlocked):
            plan_path(g, PlanRequest(free, wall), 0.1)
        with pytest.raises(ValueError, match="start equals goal"):
            plan_path(g, PlanRequest(free, GridPosition(0.52, 0.58)), 0.1)
    assert searches == [] and len(planner._PLAN_CACHE) == 0


def test_unreachable_goal_is_cached(searches):
    g = OccupancyGrid.empty(20, 20, 0.1)
    g.cells[10, :] = STATIC
    req = PlanRequest(GridPosition(0.55, 0.55), GridPosition(0.55, 1.55))
    assert plan_path(g, req, 0.05) is None
    assert plan_path(g, req, 0.05) is None
    assert len(searches) == 1 and list(planner._PLAN_CACHE.values()) == [None]


def test_cache_keeps_masks_one_cell_or_one_shape_apart(searches):
    """7 x 9 cells pack into 8 bytes with one bit to spare: the last cell
    still tells two masks apart, and so does the shape, though 9 x 7 and
    8 x 8 masks can pack to the same bytes."""
    req = PlanRequest(GridPosition(0.05, 0.05), GridPosition(0.35, 0.35))
    open_grid = OccupancyGrid.empty(9, 7, 0.1)
    last = OccupancyGrid.empty(9, 7, 0.1)
    last.cells[6, 8] = STATIC
    masks = [planner.planning_mask(g, req, 0.01) for g in (open_grid, last)]
    assert np.count_nonzero(masks[0] != masks[1]) == 1
    for g in (open_grid, last, OccupancyGrid.empty(7, 9, 0.1),
              OccupancyGrid.empty(8, 8, 0.1)):
        plan_path(g, req, 0.01)
    assert np.array_equal(np.packbits(planner.planning_mask(
        OccupancyGrid.empty(8, 8, 0.1), req, 0.01)), np.packbits(masks[0]))
    assert len(searches) == len(planner._PLAN_CACHE) == 4


# -- the request index, on maps read from a file --------------------------


@pytest.fixture
def masks_built(monkeypatch):
    """One entry per planning mask built in the test."""
    calls = []
    real = planner.planning_mask
    monkeypatch.setattr(planner, "planning_mask",
                        lambda *a: calls.append(1) or real(*a))
    return calls


def _elsewhere_in_cell(g, pos, rng):
    """Another point of the cell that holds `pos`."""
    iy, ix = g.cell_index(pos.x, pos.y)
    return GridPosition((ix + rng.uniform(0.01, 0.99)) * g.resolution,
                        (iy + rng.uniform(0.01, 0.99)) * g.resolution)


def test_indexed_plans_match_reference_cold_and_warm(tmp_path, fresh_memos,
                                                     searches, masks_built):
    rng = np.random.default_rng(31)
    for m in range(3):
        g = OccupancyGrid.empty(40, 30, 0.1)
        g.cells[rng.random((30, 40)) < 0.08] = STATIC
        g = keyed(g, tmp_path / f"{m}.map")
        # An ellipse moving along a row, then back at its first places.
        moving = [(Ellipse(0.6 + 0.4 * i, 1.5, 0.4, 0.25, 0.3),)
                  for i in range(7)]
        pairs = [(r.start, r.goal) for r in _random_requests(g, rng, 5)]
        requests = [PlanRequest(a, b, e) for e in [(), *moving, *moving[:3]]
                    for a, b in pairs]
        cold = [_assert_same_plan(g, r, radius)
                for radius in (0.1, 0.15) for r in requests]
        n_built, n_searched = len(masks_built), len(searches)
        # The same cells through other points, ellipses as a list.
        warm = [_assert_same_plan(
                    g, PlanRequest(_elsewhere_in_cell(g, r.start, rng),
                                   _elsewhere_in_cell(g, r.goal, rng),
                                   list(r.temporary_obstacles)), radius)
                for radius in (0.1, 0.15) for r in requests]
        assert warm == cold and len(searches) == n_searched
        # Only the requests that raise build their mask again.
        assert len(masks_built) - n_built == cold.count("blocked")
        assert {"path", "blocked"} <= set(cold)


def test_ellipses_that_rasterize_alike_share_one_search(tmp_path, fresh_memos,
                                                        searches):
    g = keyed(OccupancyGrid.empty(40, 30, 0.1), tmp_path / "open.map")
    start, goal = GridPosition(0.55, 1.55), GridPosition(3.55, 1.55)
    reqs = [PlanRequest(start, goal, (Ellipse(cx, 1.5, 0.4, 0.3, 0.0),))
            for cx in (2.0, 2.0 + 1e-6)]
    assert np.array_equal(planner.planning_mask(g, reqs[0], 0.1),
                          planner.planning_mask(g, reqs[1], 0.1))
    plans = [plan_path(g, r, 0.1) for r in reqs]
    assert plans[0] is plans[1] and len(searches) == 1
    assert len(planner._PLAN_INDEX) == 2
    assert len(set(planner._PLAN_INDEX.values())) == 1
    assert np.array_equal(plans[1].positions,
                          oracles.plan_path(g, reqs[1], 0.1).positions)


def test_indexed_request_whose_plan_was_evicted_searches_again(
        tmp_path, fresh_memos, searches, monkeypatch):
    monkeypatch.setattr(planner, "_PLAN_CACHE_SIZE", 2)
    g = keyed(OccupancyGrid.empty(30, 20, 0.1), tmp_path / "open.map")
    goal = GridPosition(2.55, 1.55)
    reqs = [PlanRequest(GridPosition(0.55, 0.55 + 0.5 * i), goal)
            for i in range(3)]
    first = plan_path(g, reqs[0], 0.1)
    for r in reqs[1:]:
        plan_path(g, r, 0.1)
    assert len(searches) == len(planner._PLAN_INDEX) == 3
    again = plan_path(g, reqs[0], 0.1)
    assert len(searches) == 4 and again is not first
    assert np.array_equal(again.positions,
                          oracles.plan_path(g, reqs[0], 0.1).positions)
    # The request now names the new entry.
    assert plan_path(g, reqs[0], 0.1) is again and len(searches) == 4


def test_raising_requests_and_keyless_grids_stay_out_of_the_index(
        tmp_path, fresh_memos, searches):
    walled = OccupancyGrid.empty(20, 20, 0.1)
    walled.cells[10, :] = STATIC
    g = keyed(walled, tmp_path / "walled.map")
    wall, free = GridPosition(1.05, 1.05), GridPosition(0.55, 0.55)
    for _ in range(2):
        with pytest.raises(EndpointBlocked):
            plan_path(g, PlanRequest(free, wall), 0.1)
        with pytest.raises(ValueError, match="start equals goal"):
            plan_path(g, PlanRequest(free, GridPosition(0.52, 0.58)), 0.1)
    assert searches == [] and not planner._PLAN_CACHE
    assert not planner._PLAN_INDEX
    # The grid built in code plans through the cache alone.
    req = PlanRequest(free, GridPosition(1.55, 0.55))
    got = plan_path(walled, req, 0.1)
    assert plan_path(walled, req, 0.1) is got
    assert len(planner._PLAN_CACHE) == 1 and not planner._PLAN_INDEX
    # The loaded one has the same mask: it shares the entry and indexes it.
    assert plan_path(g, req, 0.1) is got and len(searches) == 1
    assert len(planner._PLAN_INDEX) == 1


def test_index_stays_within_its_bound(tmp_path, fresh_memos, searches,
                                      masks_built, monkeypatch):
    monkeypatch.setattr(planner, "_PLAN_INDEX_SIZE", 4)
    g = keyed(OccupancyGrid.empty(30, 30, 0.1), tmp_path / "open.map")
    goal = GridPosition(2.55, 2.55)
    reqs = [PlanRequest(GridPosition(*g.cell_center(2, ix)), goal)
            for ix in range(2, 12)]
    for i, r in enumerate(reqs):
        plan_path(g, r, 0.1)
        assert len(planner._PLAN_INDEX) == min(i + 1, 4)
        # A hit refreshes the first request, so it outlives the others.
        plan_path(g, reqs[0], 0.1)
    assert len(masks_built) == len(searches) == len(reqs)
    assert [key[3] for key in planner._PLAN_INDEX] == [
        g.cell_index(r.start.x, r.start.y) for r in (*reqs[-3:], reqs[0])]
    # A dropped request builds its mask again and finds its search cached.
    plan_path(g, reqs[1], 0.1)
    assert len(masks_built) == len(reqs) + 1 and len(searches) == len(reqs)
