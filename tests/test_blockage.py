"""Blockage risk: piecewise corridor model, population marginalization and
trajectory composition."""

import logging
import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from conftest import grid_from_ascii, keyed
from namoplan import blockage
from namoplan.blockage import (ObstaclePopulation, blockage_at_width,
                               blockage_given_size,
                               trajectory_blockage, trajectory_blockage_detail,
                               waypoint_presence_probability)
from namoplan.gridmap import STATIC, OccupancyGrid
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


def test_memoized_width_matches_uncached_formula(fresh_memos):
    # Populations that share a mean but not a spread, and radii that share
    # a width, must each get their own entry.
    rng = np.random.default_rng(23)
    pops = [ObstaclePopulation(mu, sigma, 1.0, 100.0)
            for mu in (0.6, 1.1) for sigma in (0.0, 0.05, 0.3)]
    queries = [(pop, w, r) for pop in pops for r in (0.2, 0.35)
               for w in [*rng.uniform(0.3, 3.0, 4), pop.mu + 3.0 * r]]
    repeats = [queries[i] for i in rng.integers(len(queries), size=40)]
    for pop, w, r in queries + repeats:
        assert blockage_at_width(pop, w, r) == oracles.blockage_at_width(
            pop, w, r)
    assert len(blockage._WIDTH_MEMO) == len(queries)


def test_width_memo_keeps_no_errors_and_stays_bounded(fresh_memos,
                                                      monkeypatch):
    monkeypatch.setattr(blockage, "_WIDTH_MEMO_SIZE", 3)
    pop = _pop()
    with pytest.raises(ValueError):
        blockage_at_width(pop, 0.0, 0.3)
    assert not blockage._WIDTH_MEMO
    for i, w in enumerate((1.2, 1.4, 1.6, 1.8, 1.2)):
        assert blockage_at_width(pop, w, 0.3) == oracles.blockage_at_width(
            pop, w, 0.3)
        assert len(blockage._WIDTH_MEMO) == min(i + 1, 3)
    assert list(blockage._WIDTH_MEMO) == [(1.0, 0.1, w, 0.3)
                                          for w in (1.6, 1.8, 1.2)]


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
    if explored:
        grid.explored[:, :] = True
    xs = np.arange(0.75, 20.5, 0.5)
    traj = Trajectory(np.column_stack([xs, np.full_like(xs, 1.25)]))
    return grid, traj


def test_fully_explored_trajectory_risk_free():
    grid, traj = _corridor_and_traj(explored=True)
    assert trajectory_blockage(_pop(), traj, grid, 0.3) == 0.0


def test_two_waypoint_product():
    q = 0.1
    survive = (1 - q) ** 2
    assert 1 - survive == pytest.approx(0.19)


def test_unexplored_corridor_accumulates_risk():
    grid, traj = _corridor_and_traj()
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    risks = trajectory_blockage_detail(pop, traj, grid, 0.3)
    assert len(risks) >= 2
    # subsampling: consecutive kept waypoints are at least one diameter apart
    kept = [r.index for r in risks]
    gaps = np.diff([traj.positions[i][0] for i in kept])
    assert np.all(gaps >= pop.mu - 1e-9)
    p = trajectory_blockage(pop, traj, grid, 0.3)
    manual = 1.0
    for r in risks:
        manual *= 1 - r.p_block
    assert p == pytest.approx(1 - manual)
    assert 0.0 < p < 1.0


def test_more_unexplored_waypoints_riskier():
    grid, traj = _corridor_and_traj()
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    short = Trajectory(traj.positions[:8])
    p_short = trajectory_blockage(pop, short, grid, 0.3)
    p_full = trajectory_blockage(pop, traj, grid, 0.3)
    assert p_full >= p_short - 1e-12


def test_open_space_skips_presence_factor():
    grid = OccupancyGrid.empty(200, 200, 0.1)  # 20 m x 20 m open hall
    xs = np.arange(3.0, 17.0, 0.1)
    traj = Trajectory(np.column_stack([xs, np.full_like(xs, 10.0)]))
    pop = ObstaclePopulation(0.6, 0.1, 50.0, 100.0)
    risks = trajectory_blockage_detail(pop, traj, grid, 0.3)
    assert all(r.p_block_given_here == 0.0 for r in risks)
    assert all(r.p_here == 0.0 for r in risks)
    assert trajectory_blockage(pop, traj, grid, 0.3) == 0.0


def test_blockage_walk_matches_per_step_reference_on_random_paths():
    rng = np.random.default_rng(71)
    moves = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                      if dx or dy])
    kept = 0
    for trial in range(40):
        res = rng.choice([0.05, 0.1, 0.3])
        grid = OccupancyGrid.empty(80, 60, res)
        grid.cells[rng.random((60, 80)) < 0.03] = STATIC
        grid.cells[int(rng.integers(5, 55)), 10:70] = STATIC  # a long wall
        for _ in range(3):
            iy, ix = rng.integers(0, 50), rng.integers(0, 70)
            grid.explored[iy:iy + 10, ix:ix + 10] = True
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
        got = trajectory_blockage_detail(pop, traj, grid, r)
        assert got == oracles.trajectory_blockage_detail(pop, traj, grid, r)
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
        grid = OccupancyGrid.empty(40, 30, res)
        grid.cells[rng.random((30, 40)) < 0.15] = STATIC
        grid.explored[rng.random((30, 40)) < rng.uniform(0.0, 0.8)] = True
        n = int(rng.integers(2, 200))
        # A walk of sub-cell steps that may start off the map or leave it.
        positions = (rng.uniform(-0.2, 1.2, 2) * (40 * res, 30 * res)
                     + np.cumsum(rng.normal(0.0, 0.7 * res, (n, 2)), axis=0))
        positions = np.repeat(positions, rng.integers(1, 3, n), axis=0)
        traj = Trajectory(positions)
        mu = rng.uniform(0.05, 1.0)
        pop = ObstaclePopulation(mu, 0.1 * mu, rng.uniform(1.0, 20.0), 100.0)
        got = trajectory_blockage_detail(pop, traj, grid, 0.2)
        assert got == oracles.trajectory_blockage_detail(pop, traj, grid, 0.2)
        kept += len(got)
        inside = [grid.in_bounds(*p) for p in positions]
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


# -- corridor widths kept on read-only trajectories -----------------------


def test_one_read_only_trajectory_scored_on_two_maps(tmp_path, fresh_memos):
    """One plan entry can serve maps whose cells differ where the planning
    masks agree, so a kept width must name its map."""
    rng = np.random.default_rng(74)
    grids = []
    for name in ("a", "b"):
        g = OccupancyGrid.empty(40, 30, 0.1)
        g.cells[rng.random((30, 40)) < 0.15] = STATIC
        grids.append(keyed(g, tmp_path / f"{name}.map"))
    cells = np.clip(np.array([15, 20]) + np.cumsum(
        rng.integers(-1, 2, (300, 2)), axis=0), 0, [39, 29])
    traj = Trajectory((cells + 0.5) * 0.1)
    traj.positions.flags.writeable = False
    traj.headings.flags.writeable = False
    pop = ObstaclePopulation(0.3, 0.03, 2.0, 12.0)
    static = [{i for i, p in enumerate(traj.positions)
               if g.state_at(*p) == STATIC} for g in grids]
    assert static[0] and static[1] and static[0] != static[1]
    scored = [set(), set()]
    for _ in range(3):
        for m, g in enumerate(grids):
            view = g.unexplored_view()
            view.explored[rng.random((30, 40)) < 0.3] = True
            got = trajectory_blockage_detail(pop, traj, view, 0.2)
            assert got == oracles.trajectory_blockage_detail(pop, traj, view,
                                                             0.2)
            scored[m] |= {r.index for r in got}
    # Waypoints scored on both maps, and ones scored on one map that sit
    # in a static cell of the other.
    assert scored[0] & scored[1]
    assert scored[0] & static[1] and scored[1] & static[0]


def test_widths_are_kept_only_for_read_only_trajectories_on_keyed_maps(
        tmp_path, fresh_memos, monkeypatch):
    casts = []
    real = blockage.raycast_width
    monkeypatch.setattr(blockage, "raycast_width",
                        lambda *a: casts.append(1) or real(*a))
    grid, traj = _corridor_and_traj()
    loaded = keyed(grid, tmp_path / "corridor.map")
    read_only = Trajectory(traj.positions.copy())
    read_only.positions.flags.writeable = False
    read_only.headings.flags.writeable = False
    pop = ObstaclePopulation(1.8, 0.1, 10.0, 40.0)
    for g, t, kept in ((loaded, read_only, True), (loaded, traj, False),
                       (grid, read_only, False)):
        first = trajectory_blockage_detail(pop, t, g, 0.3)
        n = len(casts)
        assert trajectory_blockage_detail(pop, t, g, 0.3) == first
        assert len(casts) - n == (0 if kept else len(first))
