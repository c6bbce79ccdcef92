"""Shared fixtures: ASCII grid construction, bundled scenario access and
kernels built from edited copies of the source."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from namoplan import planner, scenario_path
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


def empty_grid(width_cells: int, height_cells: int,
               resolution: float) -> OccupancyGrid:
    """A grid with every cell free."""
    return OccupancyGrid(resolution, np.full((height_cells, width_cells), FREE,
                                             np.uint8))


@pytest.fixture
def open_grid() -> OccupancyGrid:
    """Fully free 100 x 100 cells at 0.1 m (10 m x 10 m)."""
    return empty_grid(100, 100, 0.1)


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


def kernel_from(tmp_path, old: str, new: str):
    """The `astar` and `stock_cells` functions `planner.build_kernel`
    compiles from a copy of the package's source with `old` replaced by
    `new`."""
    source = planner._SOURCE.read_text()
    assert source.count(old) == 1
    copy = tmp_path / "_kernel.c"
    copy.write_text(source.replace(old, new))
    return planner.load_kernel(planner.build_kernel(copy, tmp_path))
