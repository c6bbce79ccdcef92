"""Shared fixtures: ASCII grid construction and bundled scenario access."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from namoplan import blockage, gridmap, planner, scenario_path
from namoplan.gridmap import FREE, STATIC, OccupancyGrid
from namoplan.simulator import ScenarioConfig

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def grid_from_ascii(art: str, resolution: float = 0.1) -> OccupancyGrid:
    """Build a grid from an ASCII sketch ('.' free, '#' static).

    The first sketch row becomes row 0 of the cell array (small y), so draw
    sketches with y increasing downward.
    """
    rows = [line for line in art.strip().splitlines()]
    width = len(rows[0])
    assert all(len(r) == width for r in rows), "ragged ASCII sketch"
    cells = np.zeros((len(rows), width), np.uint8)
    for iy, row in enumerate(rows):
        for ix, ch in enumerate(row):
            cells[iy, ix] = STATIC if ch == "#" else FREE
    return OccupancyGrid(resolution, cells)


def keyed(grid: OccupancyGrid, path) -> OccupancyGrid:
    """`grid` written to the map file `path` and loaded back: the same
    cells, read-only, with a key."""
    grid.save(path)
    return OccupancyGrid.load(path)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty visibility, ray-cast, inflation and blockage-width memos, and
    an empty plan cache and plan index, restored after the test."""
    monkeypatch.setattr(gridmap, "_VISIBILITY_MEMO", OrderedDict())
    monkeypatch.setattr(gridmap, "_RAY_MEMO", OrderedDict())
    monkeypatch.setattr(gridmap, "_INFLATION_CACHE", OrderedDict())
    monkeypatch.setattr(blockage, "_WIDTH_MEMO", OrderedDict())
    monkeypatch.setattr(planner, "_PLAN_CACHE", OrderedDict())
    monkeypatch.setattr(planner, "_PLAN_INDEX", OrderedDict())



@pytest.fixture
def open_grid() -> OccupancyGrid:
    """Fully free 100 x 100 cells at 0.1 m (10 m x 10 m)."""
    return OccupancyGrid.empty(100, 100, 0.1)


@pytest.fixture
def corridor_grid() -> OccupancyGrid:
    """Horizontal 2.0 m corridor (y in [1.0, 3.0]) through a 10 m x 4 m map."""
    cells = np.full((40, 100), STATIC, np.uint8)
    cells[10:30, :] = FREE
    return OccupancyGrid(0.1, cells)


@pytest.fixture(scope="session")
def room_config() -> ScenarioConfig:
    return ScenarioConfig.from_yaml(scenario_path("room.yaml"))


@pytest.fixture(scope="session")
def warehouse_config() -> ScenarioConfig:
    return ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))


def load_warehouse(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_yaml(scenario_path(f"warehouse_{name}.yaml"))
