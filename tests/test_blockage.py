"""Blockage risk: piecewise corridor model, population marginalization and
trajectory composition."""

import logging
import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from conftest import empty_grid, grid_from_ascii
from namoplan import blockage
from namoplan.blockage import (ObstaclePopulation, blockage_at_width,
                               blockage_given_size,
                               trajectory_blockage, trajectory_blockage_detail,
                               waypoint_presence_probability)
from namoplan.gridmap import STATIC, OccupancyGrid, clear_memos
from namoplan.planner import Trajectory


def _pop(mu=1.0, sigma=0.1, k=1.0, area=100.0):
    return ObstaclePopulation(mu, sigma, k, area)


# -- single-size corridor model -----------------------------------------


def test_small_obstacle_never_blocks():
    assert blockage_given_size(0.5, 2.0, 0.3) == 0.0


def test_middle_branch_value():
    assert blockage_given_size(1.0, 2.0, 0.3) == pytest.approx(0.2)


def test_large_obstacle_always_blocks():
    assert blockage_given_size(1.6, 2.0, 0.3) == 1.0


def test_oversized_obstacle_cannot_be_there():
    assert blockage_given_size(2.5, 2.0, 0.3) == 0.0


def test_branch_boundaries_closed_low():
    # ties resolve toward the lower-probability branch
    assert blockage_given_size(2.0 - 4 * 0.3, 2.0, 0.3) == 0.0
    assert blockage_given_size(2.0 - 2 * 0.3, 2.0, 0.3) == 1.0
    assert blockage_given_size(2.0, 2.0, 0.3) == 0.0


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        blockage_given_size(0.0, 2.0, 0.3)
    with pytest.raises(ValueError):
        blockage_given_size(1.0, 2.0, 0.0)
    # The population marginal rejects the same geometry, point mass or not.
    for sigma in (0.0, 0.1):
        pop = ObstaclePopulation(1.0, sigma, 1.0, 10.0)
        for width, r in ((-1.0, 0.3), (0.0, 0.3), (2.0, -0.3), (2.0, 0.0)):
            with pytest.raises(ValueError):
                blockage_at_width(pop, width, r)


def test_middle_branch_matches_offset_monte_carlo():
    rng = np.random.default_rng(12)
    n = 1_000_000
    for w, r, l in [(2.0, 0.3, 1.0), (3.0, 0.5, 1.4), (1.5, 0.25, 0.7)]:
        d = rng.uniform(l / 2, w - l / 2, n)
        blocked = np.maximum(d - l / 2, w - d - l / 2) < 2 * r
        p_mc = blocked.mean()
        se = math.sqrt(max(p_mc * (1 - p_mc), 1e-12) / n)
        assert abs(blockage_given_size(l, w, r) - p_mc) <= 3 * se + 1e-9


# -- population marginalization -----------------------------------------


def test_point_mass_population_is_exact():
    pop = _pop(mu=1.0, sigma=0.0)
    assert blockage_at_width(pop, 2.0, 0.3) == blockage_given_size(1.0, 2.0, 0.3)


def test_population_far_above_width():
    pop = _pop(mu=5.0, sigma=0.2)
    assert blockage_at_width(pop, 2.0, 0.3) == 0.0


def test_population_matches_quadrature():
    pop = _pop(mu=1.0, sigma=0.1)
    w, r = 2.0, 0.3
    xs = np.linspace(pop.mu - 6 * pop.sigma, pop.mu + 6 * pop.sigma, 100_000)
    pdf = np.exp(-0.5 * ((xs - pop.mu) / pop.sigma) ** 2)
    pdf /= np.trapezoid(pdf, xs)
    vals = np.array([blockage_given_size(x, w, r) for x in xs])
    quad = float(np.trapezoid(vals * pdf, xs))
    assert blockage_at_width(pop, w, r) == pytest.approx(quad, abs=0.01)


def _quad_marginal(pop, w, r):
    """Adaptive quadrature of the size model against the population density
    truncated to (0, inf), one smooth piece at a time between the branch
    points and the mean."""
    density = stats.truncnorm(-pop.mu / pop.sigma, np.inf, pop.mu, pop.sigma).pdf
    inner = (x for x in (w - 4 * r, w - 2 * r, pop.mu) if 0.0 < x < w)
    edges = sorted({0.0, w, *inner})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if b - a < 1e-12:  # two edges that differ by rounding only
            continue
        piece, _ = integrate.quad(
            lambda l: blockage_given_size(l, w, r) * density(l), a, b,
            epsabs=1e-13, epsrel=1e-12, limit=200)
        total += piece
    return total


def test_population_matches_adaptive_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(400):
        mu = rng.uniform(0.2, 2.5)
        sigma = rng.uniform(0.01, 1.5) * mu  # sigma >= mu / 2 in two thirds
        r = rng.uniform(0.05, 0.6)
        # random widths and the widths whose branch points sit at the mean
        # or at zero diameter
        for w in (rng.uniform(0.3, 5.0), mu, mu + 2 * r, mu + 4 * r,
                  2 * r, 4 * r):
            pop = ObstaclePopulation(mu, sigma, 1.0, 100.0)
            assert abs(blockage_at_width(pop, w, r)
                       - _quad_marginal(pop, w, r)) <= 1e-9


def test_population_matches_sampled_oracle():
    rng = np.random.default_rng(22)
    n = 100_000
    for i in range(30):
        mu = rng.uniform(0.2, 2.0)
        pop = ObstaclePopulation(mu, rng.uniform(0.05, 1.2) * mu, 1.0, 100.0)
        r = rng.uniform(0.1, 0.5)
        w = mu + rng.uniform(-1.0, 4.0) * r
        exact = blockage_at_width(pop, w, r)
        sampled = oracles.sampled_blockage_at_width(pop, w, r, n_samples=n,
                                                    seed=i)
        # each draw contributes a value in [0, 1], so its variance is at
        # most p (1 - p)
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / n)
        assert abs(exact - sampled) <= 4 * se


# -- presence probability -----------------------------------------------


def test_presence_zero_rate():
    assert waypoint_presence_probability(_pop(k=0.0), 5.0) == 0.0


def test_presence_direct_formula():
    assert waypoint_presence_probability(_pop(k=1.0, area=100.0), 2.0) == \
        pytest.approx(0.02)


def test_presence_clamped_with_warning(caplog):
    pop = _pop(k=300.0, area=100.0)
    with caplog.at_level(logging.WARNING, logger="namoplan.blockage"):
        p = waypoint_presence_probability(pop, 2.0)
    assert p == 1.0
    assert any("clamped" in rec.message for rec in caplog.records)


# -- trajectory composition ---------------------------------------------


def _corridor_and_traj(explored=False):
    grid = grid_from_ascii("""
##########################################
..........................................
..........................................
..........................................
..........................................
##########################################
""", resolution=0.5)
    xs = np.arange(0.75, 20.5, 0.5)
    traj = Trajectory(np.column_stack([xs, np.full_like(xs, 1.25)]))
    return grid, np.full(grid.cells.shape, explored), traj


def test_fully_explored_trajectory_risk_free():
    grid, seen, traj = _corridor_and_traj(explored=True)
    assert trajectory_blockage(_pop(), traj, grid, seen, 0.3) == 0.0


def test_two_waypoint_product():
    q = 0.1
    survive = (1 - q) ** 2
    assert 1 - survive == pytest.approx(0.19)


def test_unexplored_corridor_accumulates_risk():
    grid, seen, traj = _corridor_and_traj()
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    risks = trajectory_blockage_detail(pop, traj, grid, seen, 0.3)
    assert len(risks) >= 2
    # subsampling: consecutive kept waypoints are at least one diameter apart
    kept = [r.index for r in risks]
    gaps = np.diff([traj.positions[i][0] for i in kept])
    assert np.all(gaps >= pop.mu - 1e-9)
    p = trajectory_blockage(pop, traj, grid, seen, 0.3)
    manual = 1.0
    for r in risks:
        manual *= 1 - r.p_block
    assert p == pytest.approx(1 - manual)
    assert 0.0 < p < 1.0


def test_more_unexplored_waypoints_riskier():
    grid, seen, traj = _corridor_and_traj()
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    short = Trajectory(traj.positions[:8])
    p_short = trajectory_blockage(pop, short, grid, seen, 0.3)
    p_full = trajectory_blockage(pop, traj, grid, seen, 0.3)
    assert p_full >= p_short - 1e-12


def test_open_space_skips_presence_factor():
    grid = empty_grid(200, 200, 0.1)  # 20 m x 20 m open hall
    xs = np.arange(3.0, 17.0, 0.1)
    traj = Trajectory(np.column_stack([xs, np.full_like(xs, 10.0)]))
    pop = ObstaclePopulation(0.6, 0.1, 50.0, 100.0)
    seen = np.zeros(grid.cells.shape, bool)
    risks = trajectory_blockage_detail(pop, traj, grid, seen, 0.3)
    assert all(r.p_block_given_here == 0.0 for r in risks)
    assert all(r.p_here == 0.0 for r in risks)
    assert trajectory_blockage(pop, traj, grid, seen, 0.3) == 0.0


def test_blockage_walk_matches_per_step_reference_on_random_paths():
    rng = np.random.default_rng(71)
    moves = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                      if dx or dy])
    kept = 0
    for trial in range(40):
        res = rng.choice([0.05, 0.1, 0.3])
        cells = np.zeros((60, 80), np.uint8)
        cells[rng.random((60, 80)) < 0.03] = STATIC
        cells[int(rng.integers(5, 55)), 10:70] = STATIC  # a long wall
        grid = OccupancyGrid(res, cells)
        seen = np.zeros((60, 80), bool)
        for _ in range(3):
            iy, ix = rng.integers(0, 50), rng.integers(0, 70)
            seen[iy:iy + 10, ix:ix + 10] = True
        n = int(rng.integers(2, 300))
        if trial % 2:  # a walk over cell centres, as A* gives
            cells = np.clip(rng.integers(10, 50, 2)
                            + np.cumsum(moves[rng.integers(0, 8, n)], axis=0),
                            0, 59)
            positions = (cells + 0.5) * res
        else:  # an off-grid walk
            positions = np.clip(rng.uniform(0.0, 60 * res, 2)
                                + np.cumsum(rng.normal(0.0, res, (n, 2)), axis=0),
                                0.0, 60 * res - 1e-9)
        traj = Trajectory(positions)
        mu = rng.uniform(0.15, 1.2)
        pop = ObstaclePopulation(mu, 0.1 * mu, rng.uniform(1.0, 20.0),
                                 float(grid.cells.size) * res * res)
        r = rng.uniform(0.1, 0.4)
        got = trajectory_blockage_detail(pop, traj, grid, seen, r)
        assert got == oracles.trajectory_blockage_detail(pop, traj, grid,
                                                         seen, r)
        kept += len(got)
    assert kept > 100


def test_blockage_walk_matches_reference_off_map_and_in_static_cells():
    """Waypoints off the map, repeated waypoints (zero-length steps) and
    waypoints inside static cells, over partly explored masks."""
    rng = np.random.default_rng(72)
    seen = {"off": 0, "static": 0, "repeat": 0}
    kept = 0
    for trial in range(60):
        res = rng.choice([0.1, 0.25])
        cells = np.zeros((30, 40), np.uint8)
        cells[rng.random((30, 40)) < 0.15] = STATIC
        grid = OccupancyGrid(res, cells)
        explored = rng.random((30, 40)) < rng.uniform(0.0, 0.8)
        n = int(rng.integers(2, 200))
        # A walk of sub-cell steps that may start off the map or leave it.
        positions = (rng.uniform(-0.2, 1.2, 2) * (40 * res, 30 * res)
                     + np.cumsum(rng.normal(0.0, 0.7 * res, (n, 2)), axis=0))
        positions = np.repeat(positions, rng.integers(1, 3, n), axis=0)
        traj = Trajectory(positions)
        mu = rng.uniform(0.05, 1.0)
        pop = ObstaclePopulation(mu, 0.1 * mu, rng.uniform(1.0, 20.0), 100.0)
        got = trajectory_blockage_detail(pop, traj, grid, explored, 0.2)
        assert got == oracles.trajectory_blockage_detail(pop, traj, grid,
                                                         explored, 0.2)
        kept += len(got)
        inside = [grid.cell_index(*p) is not None for p in positions]
        seen["off"] += inside.count(False)
        seen["static"] += sum(ok and grid.state_at(*p) == STATIC
                              for ok, p in zip(inside, positions))
        seen["repeat"] += int(np.sum(np.diff(positions, axis=0) == 0))
    assert kept > 100 and min(seen.values()) > 100


def test_probabilities_stay_in_unit_interval_under_fuzzing():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        w = rng.uniform(0.2, 6.0)
        r = rng.uniform(0.05, 0.8)
        l = rng.uniform(0.01, 7.0)
        assert 0.0 <= blockage_given_size(l, w, r) <= 1.0


# -- one read-only trajectory on two maps ---------------------------------


def test_one_read_only_trajectory_scored_on_two_maps():
    """One plan entry can serve maps whose cells differ where the planning
    masks agree, so what the trajectory and the blockage memo keep must
    name its map."""
    clear_memos()
    rng = np.random.default_rng(74)
    grids = []
    for _ in range(2):
        cells = np.zeros((30, 40), np.uint8)
        cells[rng.random((30, 40)) < 0.15] = STATIC
        grids.append(OccupancyGrid(0.1, cells))
    cells = np.clip(np.array([15, 20]) + np.cumsum(
        rng.integers(-1, 2, (300, 2)), axis=0), 0, [39, 29])
    traj = Trajectory((cells + 0.5) * 0.1)
    pop = ObstaclePopulation(0.3, 0.03, 2.0, 12.0)
    static = [{i for i, p in enumerate(traj.positions)
               if g.state_at(*p) == STATIC} for g in grids]
    assert static[0] and static[1] and static[0] != static[1]
    scored = [set(), set()]
    for _ in range(3):
        for m, g in enumerate(grids):
            seen = rng.random((30, 40)) < 0.3
            got = trajectory_blockage_detail(pop, traj, g, seen, 0.2)
            assert got == oracles.trajectory_blockage_detail(pop, traj, g,
                                                             seen, 0.2)
            scored[m] |= {r.index for r in got}
    # Waypoints scored on both maps, and ones scored on one map that sit
    # in a static cell of the other.
    assert scored[0] & scored[1]
    assert scored[0] & static[1] and scored[1] & static[0]


# -- scores memoized on what they read ------------------------------------


def test_memoized_blockage_matches_uncached_score():
    clear_memos()
    rng = np.random.default_rng(23)
    cells = np.zeros((30, 40), np.uint8)
    cells[rng.random((30, 40)) < 0.1] = STATIC
    grid = OccupancyGrid(0.1, cells)
    trajs = [Trajectory((np.clip(np.array([15, 20]) + np.cumsum(
        rng.integers(-1, 2, (200, 2)), axis=0), -2, [41, 31]) + 0.5) * 0.1)
        for _ in range(2)]
    # Populations that share a mean but not a spread, and two radii.
    pops = [ObstaclePopulation(0.3, sigma, 2.0, 12.0) for sigma in (0.0, 0.05)]
    masks = [rng.random((30, 40)) < rng.uniform(0.1, 0.9) for _ in range(4)]
    queries = [(t, pop, r, m) for t in range(2) for pop in pops
               for r in (0.15, 0.2) for m in range(4)]
    repeats = [queries[i] for i in rng.integers(len(queries), size=30)]
    distinct = set()
    for t, pop, r, m in queries + repeats:
        seen = masks[m]
        traj = trajs[t]
        assert trajectory_blockage(pop, traj, grid, seen, r) == \
            oracles.trajectory_blockage(pop, traj, grid, seen, r)
        # The memo tells states apart only by the explored flags of the
        # trajectory's cells; off the map counts as explored.
        distinct.add((t, pop, r, tuple(oracles.is_explored(grid, seen, *p)
                                       for p in traj.positions)))
    assert len(blockage._BLOCKAGE_MEMO) == len(distinct)


def test_exploring_a_route_cell_adds_an_entry_and_an_off_route_cell_hits(
        monkeypatch):
    clear_memos()
    scored = []
    real = blockage._blockage
    monkeypatch.setattr(blockage, "_blockage",
                        lambda *a: scored.append(1) or real(*a))
    grid, seen, traj = _corridor_and_traj()
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    first = trajectory_blockage(pop, traj, grid, seen, 0.3)
    assert first > 0.0 and len(scored) == 1
    iy, ix = grid.cell_index(*traj.positions[0])
    seen[iy + 1, ix] = True
    assert trajectory_blockage(pop, traj, grid, seen, 0.3) == first
    assert len(scored) == 1 and len(blockage._BLOCKAGE_MEMO) == 1
    seen[iy, ix] = True
    second = trajectory_blockage(pop, traj, grid, seen, 0.3)
    assert second == oracles.trajectory_blockage(pop, traj, grid, seen, 0.3)
    assert len(scored) == 2 and len(blockage._BLOCKAGE_MEMO) == 2


def test_blockage_memo_keeps_no_errors_and_stays_bounded(monkeypatch):
    clear_memos()
    monkeypatch.setattr(blockage._BLOCKAGE_MEMO, "size", 3)
    grid, seen, traj = _corridor_and_traj()
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    with pytest.raises(ValueError):
        trajectory_blockage(pop, traj, grid, seen, -0.3)
    assert not blockage._BLOCKAGE_MEMO
    for i, r in enumerate((0.2, 0.25, 0.3, 0.35, 0.2)):
        assert trajectory_blockage(pop, traj, grid, seen, r) == \
            oracles.trajectory_blockage(pop, traj, grid, seen, r)
        assert len(blockage._BLOCKAGE_MEMO) == min(i + 1, 3)
    assert [key[3] for key in blockage._BLOCKAGE_MEMO] == [0.3, 0.35, 0.2]
