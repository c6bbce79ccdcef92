"""A* planning: optimality against Dijkstra, ellipse obstacles, headings."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import empty_grid, grid_from_ascii, kernel_from
from namoplan import observation, planner
from namoplan.gridmap import STATIC, OccupancyGrid, clear_memos
from namoplan.planner import Ellipse, Trajectory, blocked_mask, plan_path
from oracles import dijkstra_cost

# -- trajectory basics --------------------------------------------------


def test_trajectory_needs_two_waypoints():
    with pytest.raises(ValueError):
        Trajectory(np.array([[1.0, 1.0]]))
    # Waypoints are (x, y) pairs: the stock kernel reads them two by two.
    for shape in ((3, 1), (3, 3), (3,), (2, 2, 2)):
        with pytest.raises(ValueError, match=r"\(x, y\) waypoints"):
            Trajectory(np.zeros(shape))


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


@given(arrays(np.float64, st.tuples(st.integers(2, 40), st.just(2)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[math.nan, 0.0], [1.0, 1.0]]))
@example(np.array([[math.inf, 0.0], [1.0, 1.0]]))
@example(np.array([[0.0, 0.0], [1.0, -math.inf]]))
@example(np.array([[-1.7e308, 0.0], [1.7e308, 0.0]]))
def test_trajectory_is_a_read_only_value_of_its_positions(positions):
    # Waypoints that are not finite, or whose steps overflow, are refused.
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.diff(positions, axis=0)).all()
    if not finite:
        with pytest.raises(ValueError, match="finite"):
            Trajectory(positions)
        return
    given_bytes = positions.tobytes()
    t = Trajectory(positions)
    positions.fill(np.nan)
    assert t.positions.tobytes() == given_bytes
    for array in (t.positions, t.headings):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert np.all((-math.pi <= t.headings) & (t.headings <= math.pi))
    assert (observation.turn_angles(t.headings).tobytes()
            == oracles.turn_angles(t.headings).tobytes())
    assert t == t and t != Trajectory(t.positions)


def test_segment_slices_inclusive():
    t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    seg = oracles.segment(t, 1, 3)
    assert len(seg) == 3
    assert seg.positions[0, 0] == pytest.approx(1.0)
    assert seg.positions[-1, 0] == pytest.approx(3.0)


# -- straight-line planning ---------------------------------------------


def test_straight_path_eight_meters():
    g = empty_grid(100, 30, 0.1)
    traj = plan_path(g, (1.0, 1.5), (9.0, 1.5), robot_radius=0.3)
    assert traj is not None
    assert traj.total_length == pytest.approx(8.0, abs=2 * g.resolution)
    # straight: every heading equal
    assert np.allclose(traj.headings, traj.headings[0])


def test_start_equals_goal_rejected():
    g = empty_grid(20, 20, 0.1)
    assert plan_path(g, (1.0, 1.0), (1.02, 1.04), robot_radius=0.1) is None


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
    traj = plan_path(g, (1.2, 1.2), (1.2, 4.2), robot_radius=0.2)
    assert traj is None


def test_corridor_covered_by_ellipse_gives_no_path(corridor_grid):
    e = Ellipse(5.0, 2.0, 0.5, 1.2, 0.0)
    traj = plan_path(corridor_grid, (1.0, 2.0), (9.0, 2.0), robot_radius=0.3,
                     ellipses=(e,))
    assert traj is None


# -- optimality and safety ----------------------------------------------


def test_astar_matches_dijkstra_on_random_maps():
    rng = np.random.default_rng(4)
    for trial in range(25):
        g = OccupancyGrid(0.1, rng.random((40, 40)) < 0.25)
        mask = blocked_mask(g, 0.05)
        free = np.argwhere(~mask)
        if len(free) < 2:
            continue
        (sy, sx), (gy, gx) = free[rng.integers(0, len(free), 2)]
        if (sy, sx) == (gy, gx):
            continue
        start, goal = g.cell_center(sy, sx), g.cell_center(gy, gx)
        oracle = dijkstra_cost(g, mask, start, goal)
        traj = plan_path(g, start, goal, 0.05)
        if traj is None:
            assert math.isinf(oracle)
        else:
            cost = traj.total_length / g.resolution
            assert cost == pytest.approx(oracle, abs=1e-6)


def test_adding_obstacle_never_shortens():
    g = empty_grid(60, 60, 0.1)
    base = plan_path(g, (1.0, 3.0), (5.0, 3.0), 0.2)
    e = Ellipse(3.0, 3.0, 0.4, 0.4, 0.0)
    detour = plan_path(g, (1.0, 3.0), (5.0, 3.0), 0.2, (e,))
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
    traj = plan_path(g, (0.6, 0.8), (4.4, 0.8), robot_radius=0.2)
    assert traj is not None
    statics = np.argwhere(g.cells == STATIC)
    centers = np.array([g.cell_center(iy, ix) for iy, ix in statics])
    for p in traj.positions:
        assert np.min(np.linalg.norm(centers - p, axis=1)) > 0.2


def test_consecutive_waypoints_adjacent():
    g = empty_grid(50, 50, 0.1)
    traj = plan_path(g, (1.0, 1.0), (4.0, 3.0), robot_radius=0.2)
    gaps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
    assert np.all(gaps <= math.sqrt(2) * g.resolution + 1e-9)


# -- escape from a temporary ellipse ------------------------------------


def test_start_inside_ellipse_is_escapable():
    g = empty_grid(60, 60, 0.1)
    e = Ellipse(3.0, 3.0, 1.0, 1.0, 0.0)
    traj = plan_path(g, (3.2, 3.0), (5.5, 3.0), robot_radius=0.2, ellipses=(e,))
    assert traj is not None
    assert traj.positions[-1, 0] == pytest.approx(5.55, abs=g.resolution)


def test_start_inside_static_inflation_still_blocked():
    g = empty_grid(60, 60, 0.1)
    e = Ellipse(3.0, 0.5, 1.0, 1.0, 0.0)
    # start is inside the border inflation, not just the ellipse
    assert plan_path(g, (3.0, 0.15), (5.5, 3.0), robot_radius=0.3,
                     ellipses=(e,)) is None


# -- pinned to the per-cell reference search ------------------------------


def _assert_same_plan(g, req, radius):
    """plan_path answers the request (start, goal, ellipses) exactly as the
    reference planner does: the same waypoints, or None. Says which:
    "path", "blocked" when an endpoint is blocked in the reference planning
    mask, else "none"."""
    start, goal, ellipses = req
    want = oracles.plan_path(g, start, goal, radius, ellipses)
    got = plan_path(g, start, goal, radius, ellipses)
    if want is None:
        assert got is None
        mask = oracles.planning_mask(g, start, ellipses, radius)
        blocked = any(mask[g.cell_index(*p)] for p in (start, goal))
        return "blocked" if blocked else "none"
    assert got is not None and np.array_equal(got.positions, want.positions)
    return "path"


def _random_requests(g, rng, n, ellipses=()):
    cells = [(iy, ix) for iy in range(g.height_cells) for ix in range(g.width_cells)]
    for _ in range(n):
        a, b = rng.choice(len(cells), size=2, replace=False)
        yield g.cell_center(*cells[a]), g.cell_center(*cells[b]), ellipses


@pytest.mark.parametrize("density", [0.1, 0.2])
def test_plan_matches_reference_on_random_maps(density):
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(12):
        g = OccupancyGrid(0.1, rng.random((28, 36)) < density)
        for req in _random_requests(g, rng, 6):
            seen.add(_assert_same_plan(g, req, 0.1))
    assert seen == {"blocked", "none", "path"}


def test_plan_matches_reference_on_open_grid_ties():
    # Many equal-cost routes: only the turn-count tie-break and the heap
    # order pick one, so any drift in either shows up here.
    rng = np.random.default_rng(12)
    g = empty_grid(50, 40, 0.1)
    for req in _random_requests(g, rng, 40):
        _assert_same_plan(g, req, 0.15)


def test_plan_matches_reference_with_ellipses():
    rng = np.random.default_rng(13)
    g = OccupancyGrid(0.1, rng.random((50, 60)) < 0.05)
    for _ in range(8):
        ellipses = tuple(Ellipse(rng.uniform(0.5, 5.5), rng.uniform(0.5, 4.5),
                                 rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                                 rng.uniform(-math.pi, math.pi))
                         for _ in range(3))
        for req in _random_requests(g, rng, 5, ellipses):
            _assert_same_plan(g, req, 0.1)


def test_plan_matches_reference_from_inside_ellipse():
    rng = np.random.default_rng(14)
    cells = np.zeros((60, 60), np.uint8)
    cells[20:40, 45] = STATIC
    g = OccupancyGrid(0.1, cells)
    for _ in range(20):
        e = Ellipse(rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0),
                    rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2),
                    rng.uniform(-math.pi, math.pi))
        start = (e.cx + rng.uniform(-0.3, 0.3), e.cy + rng.uniform(-0.3, 0.3))
        req = (start, (5.55, 5.55), (e,))
        assert _assert_same_plan(g, req, 0.2) == "path"


def test_plan_matches_reference_when_unreachable_or_blocked():
    cells = np.zeros((30, 40), np.uint8)
    cells[15, :] = STATIC
    g = OccupancyGrid(0.1, cells)
    below, above = (2.0, 0.8), (2.0, 2.5)
    assert _assert_same_plan(g, (below, above, ()), 0.1) == "none"
    wall = (2.0, 1.55)
    assert _assert_same_plan(g, (below, wall, ()), 0.1) == "blocked"
    assert _assert_same_plan(g, (wall, below, ()), 0.1) == "blocked"


def test_blocked_mask_matches_per_cell_rasterization():
    # Centers across and beyond the map on every side, so boxes are whole,
    # clipped, or wholly off the map (low side: negative slice stops).
    rng = np.random.default_rng(15)
    painted = 0
    for _ in range(30):
        shape = (int(rng.integers(20, 60)), int(rng.integers(20, 60)))
        g = OccupancyGrid(float(rng.choice([0.05, 0.1, 0.25])),
                          rng.random(shape[::-1]) < 0.05)
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
    g = empty_grid(40, 40, 0.1)
    e = Ellipse(cx, cy, 0.5, 0.3, 0.4)
    got = blocked_mask(g, 0.1, (e,))
    assert np.array_equal(got, oracles.blocked_mask(g, 0.1, (e,)))
    # Only an ellipse reaching into the map paints cells.
    painted = got & ~blocked_mask(g, 0.1)
    assert painted.any() == (cx == -0.2 or cy == -0.2)


# -- the plan memo ------------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """Empty memos for the test, and the list of A* searches run."""
    clear_memos()
    calls = []
    real = planner._astar_on_mask
    monkeypatch.setattr(planner, "_astar_on_mask",
                        lambda *a: calls.append(a[2:]) or real(*a))
    return calls


@pytest.fixture
def masks_built(monkeypatch):
    """One entry per planning mask built in the test."""
    calls = []
    real = planner.planning_mask
    monkeypatch.setattr(planner, "planning_mask",
                        lambda *a: calls.append(1) or real(*a))
    return calls


def _mask_keys():
    """The plan memo's mask keys, which start with the mask digest's bytes;
    its request keys start with `grid.key`, a tuple."""
    return [key for key in planner._PLAN_CACHE if isinstance(key[0], bytes)]


def test_cached_plans_match_reference_cold_and_warm(searches):
    rng = np.random.default_rng(21)
    n_requests = 0
    for _ in range(3):
        g = OccupancyGrid(0.1, rng.random((30, 40)) < 0.08)
        ellipse_sets = [()] + [
            tuple(Ellipse(rng.uniform(0.5, 3.5), rng.uniform(0.5, 2.5),
                          rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6),
                          rng.uniform(-math.pi, math.pi)) for _ in range(2))
            for _ in range(3)]
        # The same start and goal recur under every set of ellipses.
        pairs = [(a, b) for a, b, _ in _random_requests(g, rng, 5)]
        requests = [(a, b, e) for e in ellipse_sets for a, b in pairs]
        cold = [_assert_same_plan(g, r, 0.1) for r in requests]
        n_cold = len(searches)
        warm = [_assert_same_plan(g, r, 0.1) for r in requests]
        assert warm == cold and len(searches) == n_cold
        n_requests += len(requests)
    # Each mask got its own entry and search for a recurring start and
    # goal, and each request an entry of its own.
    assert len(set(searches)) < len(searches) == len(_mask_keys())
    assert len(planner._PLAN_CACHE) == len(searches) + n_requests


def test_cache_stays_within_capacity(searches, masks_built):
    g = empty_grid(30, 30, 0.1)
    goal = (2.55, 2.55)
    starts = [g.cell_center(iy, ix) for iy in range(2, 27) for ix in range(2, 9)]
    # Each new start adds a request entry and a mask entry.
    assert 2 * len(starts) > planner._PLAN_CACHE.size
    first = plan_path(g, starts[0], goal, 0.1)
    for start in starts[1:]:
        plan_path(g, start, goal, 0.1)
        assert len(planner._PLAN_CACHE) <= planner._PLAN_CACHE.size
        # A hit refreshes the first request, so it outlives its
        # neighbours, and builds no mask.
        assert plan_path(g, starts[0], goal, 0.1) is first
    assert len(planner._PLAN_CACHE) == planner._PLAN_CACHE.size
    assert len(masks_built) == len(searches) == len(starts)
    plan_path(g, starts[1], goal, 0.1)  # evicted, searched again
    assert len(masks_built) == len(searches) == len(starts) + 1


def test_cache_keeps_maps_of_one_shape_apart(searches):
    open_grid = empty_grid(40, 30, 0.1)
    cells = np.zeros((30, 40), np.uint8)
    cells[5:30, 20] = STATIC
    walled = OccupancyGrid(0.1, cells)
    coarse = empty_grid(40, 30, 0.2)
    start, goal = (0.55, 1.55), (3.55, 1.55)
    got_open = plan_path(open_grid, start, goal, 0.1)
    got_walled = plan_path(walled, start, goal, 0.1)
    assert len(searches) == 2
    for g, got in ((open_grid, got_open), (walled, got_walled)):
        assert np.array_equal(got.positions,
                              oracles.plan_path(g, start, goal, 0.1).positions)
    assert not np.array_equal(got_walled.positions, got_open.positions)
    # The same mask and cells at twice the resolution and radius: a new
    # search, and waypoints twice as far apart.
    wide = plan_path(coarse, (1.1, 3.1), (7.1, 3.1), 0.2)
    assert np.array_equal(planner.planning_mask(coarse, (1.1, 3.1), (), 0.2),
                          planner.planning_mask(open_grid, start, (), 0.1))
    assert len(searches) == 3
    assert np.array_equal(wide.positions, 2.0 * got_open.positions)


def test_cached_trajectory_is_read_only(searches):
    g = empty_grid(30, 20, 0.1)
    traj = plan_path(g, (0.55, 0.55), (2.55, 1.55), 0.1)
    want = traj.positions.copy()
    with pytest.raises(ValueError):
        traj.positions[0, 0] = 9.0
    with pytest.raises(ValueError):
        traj.headings[0] = 9.0
    again = plan_path(g, (0.55, 0.55), (2.55, 1.55), 0.1)
    assert again is traj and np.array_equal(again.positions, want)
    assert len(searches) == 1


def _walled_grid():
    """2 m x 2 m, a wall across row 10 (y in [1.0, 1.1))."""
    cells = np.zeros((20, 20), np.uint8)
    cells[10, :] = STATIC
    return OccupancyGrid(0.1, cells)


_FREE = (0.55, 0.55)


@pytest.mark.parametrize("start, goal, ellipses", [
    ((-1.0, 0.55), _FREE, ()),
    (_FREE, (0.55, 2.5), ()),
    # In the border inflation and in the ellipse, which carves no escape.
    ((0.05, 0.55), (1.55, 0.55), (Ellipse(0.3, 0.55, 0.4, 0.4, 0.0),)),
    (_FREE, (1.05, 1.05), ()),
    (_FREE, (0.52, 0.58), ()),
    (_FREE, (0.55, 1.55), ()),
], ids=["start-off-map", "goal-off-map", "start-in-inflation", "goal-blocked",
        "same-cell", "walled-off"])
def test_no_path_answers_none_once(searches, masks_built, start, goal,
                                   ellipses):
    """Whatever the reason there is no path, the answer is None, the
    reference's too, and a second identical call builds no mask."""
    g = _walled_grid()
    assert oracles.plan_path(g, start, goal, 0.1, ellipses) is None
    assert plan_path(g, start, goal, 0.1, ellipses) is None
    assert plan_path(g, start, goal, 0.1, ellipses) is None
    assert len(masks_built) == 1
    # Only a goal walled off from free endpoints is searched.
    assert len(searches) == (goal == (0.55, 1.55))


@pytest.mark.parametrize("start, goal", [
    ((-0.05, 1.05), (1.05, 1.05)), ((1.05, 1.05), (1.05, -0.05))])
def test_endpoint_just_below_a_borderless_map_has_no_path(start, goal):
    # -0.05 lies in cell -1, off the map, where int() would truncate it
    # to cell 0.
    g = empty_grid(20, 20, 0.1)
    assert plan_path(g, start, goal, 0.0) is None
    assert oracles.plan_path(g, start, goal, 0.0) is None


def test_unreachable_goal_is_cached(searches):
    g = _walled_grid()
    assert plan_path(g, (0.55, 0.55), (0.55, 1.55), 0.05) is None
    assert plan_path(g, (0.55, 0.55), (0.55, 1.55), 0.05) is None
    # The request's entry and its mask's entry both hold the None.
    assert len(searches) == 1
    assert list(planner._PLAN_CACHE.values()) == [None, None]


def test_cache_keeps_masks_one_cell_or_one_shape_apart(searches):
    """7 x 9 cells pack into 8 bytes with one bit to spare: the last cell
    still tells two masks apart, and so does the shape, though 9 x 7 and
    8 x 8 masks can pack to the same bytes."""
    start, goal = (0.05, 0.05), (0.35, 0.35)
    open_grid = empty_grid(9, 7, 0.1)
    cells = np.zeros((7, 9), np.uint8)
    cells[6, 8] = STATIC
    last = OccupancyGrid(0.1, cells)
    masks = [planner.planning_mask(g, start, (), 0.01) for g in (open_grid, last)]
    assert np.count_nonzero(masks[0] != masks[1]) == 1
    for g in (open_grid, last, empty_grid(7, 9, 0.1),
              empty_grid(8, 8, 0.1)):
        plan_path(g, start, goal, 0.01)
    assert np.array_equal(np.packbits(planner.planning_mask(
        empty_grid(8, 8, 0.1), start, (), 0.01)), np.packbits(masks[0]))
    assert len(searches) == len(_mask_keys()) == 4


# -- request keys ---------------------------------------------------------


def _elsewhere_in_cell(g, pos, rng):
    """Another point of the cell that holds `pos`."""
    iy, ix = g.cell_index(*pos)
    return ((ix + rng.uniform(0.01, 0.99)) * g.resolution,
            (iy + rng.uniform(0.01, 0.99)) * g.resolution)


def test_indexed_plans_match_reference_cold_and_warm(searches, masks_built):
    rng = np.random.default_rng(31)
    for _ in range(3):
        g = OccupancyGrid(0.1, rng.random((30, 40)) < 0.08)
        # An ellipse moving along a row, then back at its first places.
        moving = [(Ellipse(0.6 + 0.4 * i, 1.5, 0.4, 0.25, 0.3),)
                  for i in range(7)]
        pairs = [(a, b) for a, b, _ in _random_requests(g, rng, 5)]
        requests = [(a, b, e) for e in [(), *moving, *moving[:3]]
                    for a, b in pairs]
        cold = [_assert_same_plan(g, r, radius)
                for radius in (0.1, 0.15) for r in requests]
        n_built, n_searched = len(masks_built), len(searches)
        # The same cells through other points, ellipses as a list.
        warm = [_assert_same_plan(
                    g, (_elsewhere_in_cell(g, a, rng),
                        _elsewhere_in_cell(g, b, rng), list(e)), radius)
                for radius in (0.1, 0.15) for a, b, e in requests]
        assert warm == cold and len(searches) == n_searched
        # No request builds its mask again, a blocked one neither.
        assert len(masks_built) == n_built
        assert {"path", "blocked"} <= set(cold)


def test_ellipses_that_rasterize_alike_share_one_search(searches, masks_built):
    g = empty_grid(40, 30, 0.1)
    start, goal = (0.55, 1.55), (3.55, 1.55)
    ellipse_sets = [(Ellipse(cx, 1.5, 0.4, 0.3, 0.0),) for cx in (2.0, 2.0 + 1e-6)]
    assert np.array_equal(planner.planning_mask(g, start, ellipse_sets[0], 0.1),
                          planner.planning_mask(g, start, ellipse_sets[1], 0.1))
    plans = [plan_path(g, start, goal, 0.1, e) for e in ellipse_sets]
    assert plans[0] is plans[1] and len(searches) == 1
    # Two request entries and the one mask entry they share.
    assert len(planner._PLAN_CACHE) == 3 and len(_mask_keys()) == 1
    assert np.array_equal(plans[1].positions, oracles.plan_path(
        g, start, goal, 0.1, ellipse_sets[1]).positions)
    # The second request refreshed the mask entry, so the least recently
    # used entry is the first request's. Dropped, as by the bound, that
    # request builds its mask again and finds the search.
    dropped, _ = planner._PLAN_CACHE.popitem(last=False)
    assert dropped[2] == ellipse_sets[0]
    n_built = len(masks_built)
    assert plan_path(g, start, goal, 0.1, ellipse_sets[0]) is plans[0]
    assert len(masks_built) == n_built + 1 and len(searches) == 1


def test_request_whose_entries_were_evicted_searches_again(
        searches, monkeypatch):
    monkeypatch.setattr(planner._PLAN_CACHE, "size", 2)
    g = empty_grid(30, 20, 0.1)
    goal = (2.55, 1.55)
    starts = [(0.55, 0.55 + 0.5 * i) for i in range(3)]
    first = plan_path(g, starts[0], goal, 0.1)
    for start in starts[1:]:
        plan_path(g, start, goal, 0.1)
    # The memo holds the last request's entry and its mask's entry only.
    assert len(searches) == 3 and len(planner._PLAN_CACHE) == 2
    again = plan_path(g, starts[0], goal, 0.1)
    assert len(searches) == 4 and again is not first
    assert np.array_equal(again.positions,
                          oracles.plan_path(g, starts[0], goal, 0.1).positions)
    # The request now names the new entry.
    assert plan_path(g, starts[0], goal, 0.1) is again and len(searches) == 4


def test_no_path_requests_join_the_index(searches):
    """A request with a blocked endpoint or one cell for both stores its
    request key, holding None, and no mask key."""
    g = _walled_grid()
    got = plan_path(g, _FREE, (1.55, 0.55), 0.1)
    held = list(planner._PLAN_CACHE)
    assert len(held) == 2
    for _ in range(2):
        assert plan_path(g, _FREE, (1.05, 1.05), 0.1) is None
        assert plan_path(g, _FREE, (0.52, 0.58), 0.1) is None
    request_keys = list(planner._PLAN_CACHE)[2:]
    assert [key[3:] for key in request_keys] == [((5, 5), (10, 10)),
                                                 ((5, 5), (5, 5))]
    assert [planner._PLAN_CACHE[key] for key in request_keys] == [None, None]
    # A grid of the same cells built apart has the same key: it shares the
    # request's entry and its search.
    assert plan_path(OccupancyGrid(0.1, g.cells), _FREE, (1.55, 0.55), 0.1) is got
    assert len(searches) == 1 and len(_mask_keys()) == 1


def test_index_stays_within_its_bound(searches, masks_built, monkeypatch):
    monkeypatch.setattr(planner._PLAN_CACHE, "size", 8)
    g = empty_grid(30, 30, 0.1)
    goal = (2.55, 2.55)
    starts = [g.cell_center(2, ix) for ix in range(2, 12)]
    for i, start in enumerate(starts):
        plan_path(g, start, goal, 0.1)
        # Each new request adds its request key and its mask key.
        assert len(planner._PLAN_CACHE) == min(2 * (i + 1), 8)
        # A hit refreshes the first request, so it outlives the others.
        plan_path(g, starts[0], goal, 0.1)
    assert len(masks_built) == len(searches) == len(starts)
    request_keys = [key for key in planner._PLAN_CACHE
                    if isinstance(key[0], tuple)]
    assert [key[3] for key in request_keys] == [
        g.cell_index(*start) for start in (*starts[-4:], starts[0])]
    # A request dropped while its mask key stays builds its mask again and
    # finds its search.
    del planner._PLAN_CACHE[request_keys[-2]]
    plan_path(g, starts[-1], goal, 0.1)
    assert len(masks_built) == len(starts) + 1 and len(searches) == len(starts)


# -- the compiled kernel, pinned to the per-cell reference search ---------


def _corridor_maze(rows: int, cols: int) -> np.ndarray:
    """A snake of 1-cell corridors: walls on every odd row, each with a
    1-cell gap at alternate ends, and 1-cell pockets between pillars on
    the last row."""
    mask = np.zeros((rows, cols), bool)
    for iy in range(1, rows - 2, 2):
        mask[iy, :] = True
        mask[iy, cols - 1 if iy % 4 == 1 else 0] = False
    mask[rows - 1, 1::2] = True
    return mask


def _kernel_cases():
    """(mask, start cell, goal cell) of searches over seeded random
    maps with reachable and unreachable goals, an open grid full of
    equal-cost routes, 1-cell corridors and a 400 x 400 map with long
    walls."""
    rng = np.random.default_rng(28)
    masks = [rng.random(rng.integers(4, 40, size=2)) < rng.uniform(0.1, 0.45)
             for _ in range(60)]
    masks += [np.zeros((40, 50), bool)] * 4
    masks += [_corridor_maze(15, 21)] * 4
    for mask in masks:
        free = np.argwhere(~mask)
        for _ in range(5):
            a, b = rng.choice(len(free), size=2, replace=False)
            yield mask, tuple(map(int, free[a])), tuple(map(int, free[b]))
    big = rng.random((400, 400)) < 0.2
    for k, row in enumerate(range(100, 400, 100)):
        big[row, :] = True
        big[row, slice(None, 20) if k % 2 else slice(380, None)] = False
    big[0, 0] = big[-1, -1] = False
    yield big, (0, 0), (399, 399)


@pytest.fixture(scope="module")
def kernel_cases():
    """Each case with the reference search's waypoints, or None."""
    cases = []
    for mask, start, goal in _kernel_cases():
        g = OccupancyGrid(0.1, np.zeros(mask.shape, np.uint8))
        want = oracles.astar_on_mask(g, mask, g.cell_center(*start),
                                     g.cell_center(*goal))
        cases.append((g, mask, start, goal,
                      None if want is None else want.positions))
    return cases


def _mismatch(cases):
    """The first case where `_astar_on_mask` differs from the reference in
    any bit of any waypoint, or None."""
    for g, mask, start, goal, want in cases:
        got = planner._astar_on_mask(g, mask, start, goal)
        if (want is None) != (got is None) or (
                want is not None and not np.array_equal(got.positions, want)):
            return start, goal, mask.shape
    return None


def test_kernel_matches_reference_bit_for_bit(kernel_cases):
    reached = [want is not None for *_, want in kernel_cases]
    assert any(reached) and not all(reached)
    assert max(mask.size for _, mask, *_ in kernel_cases) >= 400 * 400
    assert _mismatch(kernel_cases) is None


@pytest.mark.parametrize("old, new", [
    # The push counter dropped from the heap order: ties in (f, turns)
    # pop in whatever order the heap leaves them.
    ("return a->counter < b->counter;", "return 0;"),
    # turns compared before f.
    ("if (a->f != b->f)\n        return a->f < b->f;\n"
     "    if (a->turns != b->turns)\n        return a->turns < b->turns;\n",
     "if (a->turns != b->turns)\n        return a->turns < b->turns;\n"
     "    if (a->f != b->f)\n        return a->f < b->f;\n"),
], ids=["no-counter", "turns-first"])
def test_broken_kernel_fails_the_equality_check(kernel_cases, tmp_path,
                                                monkeypatch, old, new):
    astar, _ = kernel_from(tmp_path, old, new)
    monkeypatch.setattr(planner, "_ASTAR", astar)
    assert _mismatch(kernel_cases) is not None


@pytest.mark.parametrize("allocator", ["malloc", "realloc"])
def test_kernel_out_of_memory_raises(tmp_path, monkeypatch, allocator):
    # Every call of `allocator` in a copy of the kernel returns NULL.
    include = "#include <stdlib.h>\n"
    astar, _ = kernel_from(tmp_path, include,
                           f"{include}#define {allocator}(...) NULL\n")
    monkeypatch.setattr(planner, "_ASTAR", astar)
    g = empty_grid(10, 10, 0.1)
    with pytest.raises(MemoryError):
        planner._astar_on_mask(g, np.zeros((10, 10), bool), (1, 1), (8, 8))


@pytest.mark.parametrize("start, goal", [((-1, 0), (5, 5)), ((0, 0), (5, 10))])
def test_kernel_rejects_cells_off_the_mask(start, goal):
    g = empty_grid(10, 10, 0.1)
    with pytest.raises(ValueError, match="not both in"):
        planner._astar_on_mask(g, np.zeros((10, 10), bool), start, goal)
