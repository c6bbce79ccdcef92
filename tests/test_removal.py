"""Success-rate beliefs, expected removal cost, and stock placement."""

import math
from itertools import islice

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import empty_grid, grid_from_ascii
from namoplan import removal
from namoplan.gridmap import STATIC, OccupancyGrid
from namoplan.planner import Trajectory
from namoplan.removal import (BetaBelief, _stock_candidates,
                              beta_ppf, estimate_removal_time, expected_removal_cost,
                              removal_cost_interval, success_rate_interval)
from namoplan.simulator import RemovalConfig, RobotConfig, ScenarioConfig

CONFIDENCE = ScenarioConfig.confidence
ROBOT, REMOVAL = RobotConfig(), RemovalConfig()
# Stock-search arguments from the default config: its speeds and handling
# times, and in STOCK its search radius too.
TIMES = {"v_lin": ROBOT.v_lin, "v_rot": ROBOT.v_rot,
         "load_overhead": REMOVAL.load_overhead,
         "unload_overhead": REMOVAL.unload_overhead}
STOCK = {**TIMES, "search_radius": REMOVAL.search_radius}

# -- Beta belief --------------------------------------------------------


def test_update_counts():
    assert oracles.update_belief(BetaBelief(9, 1), False) == BetaBelief(9, 2)
    b = oracles.update_belief(BetaBelief(1, 1), True)
    assert b == BetaBelief(2, 1)
    assert oracles.beta_mean(b) == pytest.approx(2 / 3)


def test_from_trials_keeps_belief_proper():
    assert BetaBelief.from_trials(9, 1) == BetaBelief(9, 1)
    assert BetaBelief.from_trials(10, 0) == BetaBelief(10, 1)
    assert BetaBelief.from_trials(0, 10) == BetaBelief(1, 10)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BetaBelief(0.0, 1.0)


# -- quantiles ----------------------------------------------------------


def test_ppf_uniform_case():
    assert beta_ppf(0.025, 1, 1) == pytest.approx(0.025, abs=1e-8)
    assert beta_ppf(0.975, 1, 1) == pytest.approx(0.975, abs=1e-8)
    assert beta_ppf(0.0, 3, 4) == 0.0
    assert beta_ppf(1.0, 3, 4) == 1.0


@pytest.mark.parametrize("q", [-1e-9, 1.0 + 1e-9, math.nan])
def test_ppf_rejects_quantile_outside_unit_interval(q):
    with pytest.raises(ValueError, match="quantile"):
        beta_ppf(q, 3, 4)


def test_ppf_against_scipy():
    for a, b in [(1, 1), (9, 1), (2, 8), (50, 50), (0.5, 0.5)]:
        for q in (0.025, 0.25, 0.5, 0.9, 0.975):
            assert beta_ppf(q, a, b) == pytest.approx(
                stats.beta.ppf(q, a, b), abs=1e-7)


def test_interval_symmetric_for_symmetric_belief():
    lo, hi = success_rate_interval(BetaBelief(2, 2), confidence=0.5)
    assert lo + hi == pytest.approx(1.0, abs=1e-7)


def test_interval_nesting():
    b = BetaBelief(9, 1)
    lo1, hi1 = success_rate_interval(b, 0.5)
    lo2, hi2 = success_rate_interval(b, 0.95)
    assert lo2 < lo1 < hi1 < hi2


# -- expected removal cost ----------------------------------------------


def test_cost_degenerate_rates():
    assert expected_removal_cost(1.0, 3, 10.0, 20.0) == pytest.approx(10.0)
    assert expected_removal_cost(0.0, 3, 10.0, 20.0) == pytest.approx(50.0)


def test_cost_anchor_value():
    assert expected_removal_cost(0.5, 3, 10.0, 20.0) == pytest.approx(20.0)


def test_cost_adds_attempts_left_to_right():
    # The builtin sum of floats is compensated from Python 3.12 on; adding
    # the attempt terms one after another gives the same bits everywhere.
    compensated_differs = 0
    for p in np.linspace(0.01, 0.99, 99).tolist():
        for m in (3, 7, 20):
            q = 1.0 - p
            terms = [i * p * q ** (i - 1) for i in range(1, m + 1)]
            total = 0.0
            for term in terms:
                total += term
            want = 12.0 * total + (m * 12.0 + 35.0) * q ** m
            assert expected_removal_cost(p, m, 12.0, 35.0) == want
            compensated_differs += total != math.fsum(terms)
    assert compensated_differs > 10


def test_cost_monotone_in_success_rate():
    grid = np.linspace(0.0, 1.0, 101)
    costs = [expected_removal_cost(p, 4, 12.0, 35.0) for p in grid]
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


def test_cost_interval_orients_endpoints():
    belief = BetaBelief(9, 1)
    params = (3, 10.0, 20.0)
    iv = removal_cost_interval(belief, *params, CONFIDENCE)
    p_lo, p_hi = success_rate_interval(belief, CONFIDENCE)
    assert iv.lo == pytest.approx(expected_removal_cost(p_hi, *params))
    assert iv.hi == pytest.approx(expected_removal_cost(p_lo, *params))
    assert iv.lo <= expected_removal_cost(oracles.beta_mean(belief),
                                          *params) <= iv.hi


def test_cost_interval_concentrates():
    wide = removal_cost_interval(BetaBelief(9, 1), 3, 10.0, 20.0, CONFIDENCE)
    tight = removal_cost_interval(BetaBelief(900, 100), 3, 10.0, 20.0,
                                  CONFIDENCE)
    assert tight.hi - tight.lo < wide.hi - wide.lo


def test_belief_converges_to_true_rate():
    rng = np.random.default_rng(0)
    p = 0.3
    belief = BetaBelief(1, 1)
    for _ in range(10_000):
        belief = oracles.update_belief(belief, bool(rng.random() < p))
    assert oracles.beta_mean(belief) == pytest.approx(p, abs=0.02)


# -- stock placement ----------------------------------------------------


def _doorway_world():
    # doorway at x in [0.8, 1.0), rooms below; MO sits in the doorway
    grid = grid_from_ascii("""
##########
###..#####
###..#####
..........
..........
..........
..........
..........
""", resolution=0.4)
    mo = (np.array([1.5, 0.8]), 0.25)  # belief mean and radius
    blocked = Trajectory(np.array([[1.5, 2.8], [1.5, 1.6], [1.5, 0.8],
                                   [1.5, 0.4]]))
    return grid, mo, blocked


def test_stock_found_next_to_doorway():
    grid, mo, blocked = _doorway_world()
    est = estimate_removal_time(grid, *mo, np.array([1.5, 2.0]), blocked,
                                robot_radius=0.2, search_radius=3.0, **TIMES)
    assert est is not None
    assert est.t_mo > 0
    # placed clear of the blocked path by obstacle + robot radius
    stock = est.stock_position
    d = min(np.linalg.norm(blocked.positions - [stock.x, stock.y], axis=1))
    assert d >= 0.45


def test_no_stock_in_tight_corridor():
    # corridor 1.2 m wide; an MO of radius 0.55 has no valid side placement
    cells = np.full((12, 60), 1, np.uint8)
    cells[4:7, :] = 0
    from namoplan.gridmap import OccupancyGrid
    grid = OccupancyGrid(0.4, cells)
    mo = (np.array([12.0, 2.2]), 0.55)
    xs = np.arange(0.2, 23.8, 0.2)
    blocked = Trajectory(np.column_stack([xs, np.full_like(xs, 2.2)]))
    est = estimate_removal_time(grid, *mo, np.array([10.0, 2.2]), blocked,
                                robot_radius=0.3, search_radius=2.5, **TIMES)
    assert est is None


def test_removal_time_stable_across_runs():
    grid, mo, blocked = _doorway_world()
    first = estimate_removal_time(grid, *mo, np.array([1.5, 2.0]), blocked,
                                  robot_radius=0.2, **STOCK)
    second = estimate_removal_time(grid, *mo, np.array([1.5, 2.0]), blocked,
                                   robot_radius=0.2, **STOCK)
    assert first.t_mo == second.t_mo
    assert (first.stock_position.x, first.stock_position.y) == \
        (second.stock_position.x, second.stock_position.y)


def _wall_world(rng) -> tuple[OccupancyGrid, int]:
    """50 x 40 cells at 0.1 m: scattered statics and a wall with a gap at
    the returned column."""
    cells = np.zeros((40, 50), np.uint8)
    cells[rng.random((40, 50)) < 0.04] = STATIC
    col = int(rng.integers(10, 40))
    cells[:, col] = STATIC
    gap = int(rng.integers(5, 30))
    cells[gap:gap + 8, col] = 0
    return OccupancyGrid(0.1, cells), col


def _scattered_world(rng, w, h, res) -> OccupancyGrid:
    return OccupancyGrid(res, rng.random((h, w)) < 0.05)


# A slice cap no search box reaches.
_NO_CAP = 10**9


def _everything(xs, ys):
    return np.ones(len(xs), dtype=bool)


def _assert_lazy_order_matches(grid, mx, my, mo_radius, search_radius):
    want = oracles.stock_candidates(grid, mx, my, mo_radius, search_radius)
    assert list(_stock_candidates(grid, mx, my, mo_radius, search_radius,
                                  _everything, _NO_CAP)) == want
    # A consumer that stops early sees the same prefix.
    for k in (1, 7, len(want) // 2):
        head = list(islice(_stock_candidates(grid, mx, my, mo_radius,
                                             search_radius, _everything,
                                             _NO_CAP), k))
        assert head == want[:k]
    return want


def test_stock_search_matches_per_cell_scan():
    rng = np.random.default_rng(31)
    found = passed_nearest = 0
    for _ in range(10):
        grid, col = _wall_world(rng)
        means = [(rng.uniform(0.05, 0.3), rng.uniform(0.1, 3.9)),  # left border
                 (rng.uniform(0.1, 4.9), rng.uniform(3.7, 3.95)),  # top border
                 ((col + 0.5) * 0.1 + rng.choice([-0.2, 0.2]),  # beside the wall
                  rng.uniform(0.5, 3.5)),
                 (rng.uniform(0.5, 4.5), rng.uniform(0.5, 3.5)),
                 (-0.3, 2.0),  # just off the map
                 (-9.0, 2.0)]  # the whole box off the map
        for mx, my in means:
            # A blocked path through the belief mean removes the nearest cells.
            ys = np.linspace(0.05, 3.95, 40)
            blocked = Trajectory(np.column_stack([np.full_like(ys, mx), ys]))
            for mo_radius, search_radius in ((0.15, 0.5), (0.25, 1.2), (0.3, 3.0)):
                want = _assert_lazy_order_matches(grid, mx, my, mo_radius,
                                                  search_radius)
                args = (grid, np.array([mx, my]), mo_radius,
                        np.array([2.5, 2.0]), blocked, 0.1)
                est = estimate_removal_time(*args, **TIMES,
                                            search_radius=search_radius)
                assert est == oracles.estimate_removal_time(
                    *args, **TIMES, search_radius=search_radius)
                if est is not None:
                    found += 1
                    nearest = grid.cell_center(*want[0][1:])
                    passed_nearest += (est.stock_position.x, est.stock_position.y) != nearest
    assert found > 0 and passed_nearest > 0


def test_stock_search_ignores_only_waypoints_out_of_reach():
    # Clearance 0.4, search radius 1.2: waypoints filling a disk of 0.8 m
    # rule out every candidate nearer than about 1.165 m, and a ring at
    # 1.55 m (inside the 1.6 m reach) every candidate beyond 1.15 m, so no
    # stock cell is left. A ring at 1.65 m rules out none, and a path with
    # no waypoint in reach leaves the nearest candidate.
    grid = empty_grid(60, 60, 0.1)
    mx, my = 3.02, 2.97
    mo = (np.array([mx, my]), 0.2)
    lattice = np.mgrid[-0.8:0.8:33j, -0.8:0.8:33j].reshape(2, -1).T
    disk = lattice[np.hypot(lattice[:, 0], lattice[:, 1]) <= 0.8]
    t = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    for pts, found in ((np.vstack([disk, 1.55 * circle]), False),
                       (np.vstack([disk, 1.65 * circle]), True),
                       (2.0 * circle, True)):
        blocked = Trajectory(pts + (mx, my))
        args = (grid, *mo, np.array([0.5, 0.5]), blocked, 0.2)
        est = estimate_removal_time(*args, **TIMES, search_radius=1.2)
        assert est == oracles.estimate_removal_time(*args, **TIMES,
                                                    search_radius=1.2)
        assert (est is not None) == found


@pytest.mark.parametrize("first_slice", [1, 5, 32, 64, 10_000])
def test_stock_search_first_fit_across_chunks(monkeypatch, first_slice):
    # A path looping around the obstacle rules out its nearest few hundred
    # candidates, so the first fit lies slices deep whatever the first
    # slice's size.
    monkeypatch.setattr(removal, "_FIRST_SLICE", first_slice)
    rng = np.random.default_rng(32)
    t = np.linspace(0.0, 6.0 * math.pi, 400)
    for _ in range(4):
        grid, _ = _wall_world(rng)
        mx, my = rng.uniform(1.5, 3.5), rng.uniform(1.5, 2.5)
        blocked = Trajectory(np.column_stack([mx + 0.1 * t / math.pi * np.cos(t),
                                              my + 0.1 * t / math.pi * np.sin(t)]))
        args = (grid, np.array([mx, my]), 0.15, np.array([0.5, 0.5]),
                blocked, 0.1)
        est = estimate_removal_time(*args, **STOCK)
        assert est is not None and est == oracles.estimate_removal_time(
            *args, **STOCK)
        cells = [c[1:] for c in _stock_candidates(grid, mx, my, 0.15, 3.0,
                                                  _everything, _NO_CAP)]
        assert cells.index(grid.cell_index(est.stock_position.x,
                                           est.stock_position.y)) > 64


def test_stock_search_bounds_are_closed():
    # At 0.25 m every cell center and distance along a row is exact, so
    # cells lie exactly at 2 cells and at the search radius.
    grid = empty_grid(24, 24, 0.25)
    mx, my = grid.cell_center(12, 12)
    got = list(_stock_candidates(grid, mx, my, 0.2, 1.0, _everything,
                                 _NO_CAP))
    assert got == oracles.stock_candidates(grid, mx, my, 0.2, 1.0)
    assert got[0] == (0.5, 10, 12) and got[-1] == (1.0, 16, 12)


@pytest.mark.parametrize("res", [0.05, 0.1, 0.3])
def test_lazy_stock_order_at_fractional_means(res):
    rng = np.random.default_rng(int(res * 1000))
    grid = _scattered_world(rng, 60, 60, res)
    side = 60 * res
    for _ in range(6):
        mx, my = rng.uniform(0.0, side, 2)
        search_radius = rng.uniform(4.0, 25.0) * res
        assert _assert_lazy_order_matches(grid, mx, my, 0.5 * res, search_radius)


def test_lazy_stock_order_breaks_exact_ties_like_the_full_sort():
    # At 0.25 m, with the mean on a cell centre or a cell corner, cell
    # centres and squared distances are exact, so rings of 4 and 8 cells lie
    # at equal distances and (iy, ix) decides their order.
    rng = np.random.default_rng(33)
    grid = _scattered_world(rng, 30, 30, 0.25)
    for iy, ix in ((15, 15), (4, 22), (20, 9)):
        cx, cy = grid.cell_center(iy, ix)
        for mx, my in ((cx, cy), (cx - 0.125, cy - 0.125)):
            for search_radius in (1.0, 1.25, 3.0):
                want = _assert_lazy_order_matches(grid, mx, my, 0.2,
                                                  search_radius)
                dists = [d for d, _, _ in want]
                assert len(set(dists)) < len(dists)
                assert want[-1][0] <= search_radius



def _random_fit(rng, grid, p):
    """A predicate over cell centres that passes a fixed random share `p`
    of the grid's cells."""
    table = rng.random(grid.cells.shape) < p

    def fits(xs, ys):
        res = grid.resolution
        return table[(ys / res).astype(int), (xs / res).astype(int)]
    return fits, table


def _tie_grid_means(grid):
    # At 0.25 m, means on a cell centre or a cell corner make rings of 4
    # and 8 cells at exactly equal distances.
    for iy, ix in ((15, 15), (4, 22), (20, 9)):
        cx, cy = grid.cell_center(iy, ix)
        yield cx, cy
        yield cx - 0.125, cy - 0.125


@pytest.mark.parametrize("first_slice", [1, 2, 3, 4, 5, 64])
def test_filtered_stock_order_matches_the_full_sort(monkeypatch, first_slice):
    # Slices of 1-5 cells cut through the bands of equal and nearly equal
    # distances; each cut must be extended to the end of its band.
    monkeypatch.setattr(removal, "_FIRST_SLICE", first_slice)
    rng = np.random.default_rng(34)
    worlds = [(_scattered_world(rng, 30, 30, 0.25), 0.2)]
    worlds += [(_scattered_world(rng, 40, 40, res), 0.5 * res)
               for res in (0.1, 0.3)]
    for grid, mo_radius in worlds:
        means = list(_tie_grid_means(grid)) if grid.resolution == 0.25 else [
            grid.cell_center(*rng.integers(5, 35, 2)) for _ in range(3)]
        for mx, my in means:
            for p in (0.1, 0.5, 0.9):
                fits, table = _random_fit(rng, grid, p)
                search_radius = 8.5 * grid.resolution
                want = [c for c in oracles.stock_candidates(
                    grid, mx, my, mo_radius, search_radius)
                    if table[c[1], c[2]]]
                args = (grid, mx, my, mo_radius, search_radius, fits, _NO_CAP)
                assert list(_stock_candidates(*args)) == want
                for k in range(len(want)):
                    assert list(islice(_stock_candidates(*args), k)) == want[:k]


def test_clearance_slices_double_up_to_the_cap():
    # With nothing fitting, every cell within the search radius is tested
    # once, in slices of 64, 128, ... capped at `max_slice`, and no cell
    # beyond the radius is tested at all.
    grid = empty_grid(100, 100, 0.1)
    mx, my = 5.0123, 4.9871
    inside = sum(math.hypot(*(np.array(grid.cell_center(iy, ix)) - (mx, my)))
                 <= 3.0 for iy in range(100) for ix in range(100))
    for max_slice, first in ((_NO_CAP, [64, 128, 256, 512, 1024]),
                             (100, [64, 100, 100, 100])):
        sizes = []

        def nothing(xs, ys):
            sizes.append(len(xs))
            return np.zeros(len(xs), dtype=bool)
        assert list(_stock_candidates(grid, mx, my, 0.05, 3.0, nothing,
                                      max_slice)) == []
        assert sizes[:len(first)] == first
        assert max(sizes) <= max_slice and sum(sizes) == inside


def test_stock_clearance_test_is_strict():
    # At 0.25 m the cell centres, the waypoints and the clearance
    # 0.25 + 0.25 are exact, so the nearest candidate lies exactly at the
    # clearance from the path and still fits.
    grid = empty_grid(24, 24, 0.25)
    mx, my = grid.cell_center(12, 12)
    xs = np.arange(0.125, 6.0, 0.25)
    blocked = Trajectory(np.column_stack([xs, np.full_like(xs, my - 1.0)]))
    args = (grid, np.array([mx, my]), 0.25, np.array([1.0, 1.0]), blocked, 0.25)
    est = estimate_removal_time(*args, **STOCK)
    assert est == oracles.estimate_removal_time(*args, **STOCK)
    assert (est.stock_position.x, est.stock_position.y) == (mx, my - 0.5)


def test_stock_search_under_the_smallest_slice_cap(monkeypatch):
    # One cell per clearance test (extended to its band) chooses the same
    # stock cells as the uncapped search.
    monkeypatch.setattr(removal, "_CLEARANCE_ELEMENTS", 1)
    rng = np.random.default_rng(35)
    for _ in range(3):
        grid, _ = _wall_world(rng)
        mx, my = rng.uniform(1.0, 4.0), rng.uniform(1.0, 3.0)
        ys = np.linspace(0.05, 3.95, 40)
        blocked = Trajectory(np.column_stack([np.full_like(ys, mx), ys]))
        args = (grid, np.array([mx, my]), 0.2, np.array([2.5, 2.0]),
                blocked, 0.1)
        assert estimate_removal_time(*args, **STOCK) == oracles.estimate_removal_time(
            *args, **STOCK)
