"""Regenerate the committed scenario maps.

Run from the repo root: PYTHONPATH=src python3 scripts/make_maps.py
"""

from pathlib import Path

import numpy as np

from namoplan.gridmap import FREE, STATIC, OccupancyGrid

OUT = Path(__file__).resolve().parents[1] / "src" / "namoplan" / "scenarios"


def fill_rect(cells: np.ndarray, res: float, x0: float, y0: float, x1: float,
              y1: float, state: int = STATIC) -> None:
    """Set every cell of `cells` whose centre lies in [x0, x1] x [y0, y1]."""
    for iy in range(cells.shape[0]):
        cy = (iy + 0.5) * res
        if not y0 <= cy <= y1:
            continue
        for ix in range(cells.shape[1]):
            cx = (ix + 0.5) * res
            if x0 <= cx <= x1:
                cells[iy, ix] = state


def make_room() -> OccupancyGrid:
    """10 x 6 m room split by a wall with a single 1.2 m doorway."""
    cells, res = np.full((60, 100), FREE, np.uint8), 0.1
    fill_rect(cells, res, 0.0, 0.0, 10.0, 0.1)
    fill_rect(cells, res, 0.0, 5.9, 10.0, 6.0)
    fill_rect(cells, res, 0.0, 0.0, 0.1, 6.0)
    fill_rect(cells, res, 9.9, 0.0, 10.0, 6.0)
    # dividing wall with doorway at y in (2.4, 3.6)
    fill_rect(cells, res, 4.9, 0.0, 5.1, 2.4)
    fill_rect(cells, res, 4.9, 3.6, 5.1, 6.0)
    return OccupancyGrid(res, cells)


def make_warehouse() -> OccupancyGrid:
    """20 x 19 m hall: central narrow passage between two shelving blocks,
    flanked by a lower and an upper corridor."""
    cells, res = np.full((190, 200), FREE, np.uint8), 0.1
    fill_rect(cells, res, 0.0, 0.0, 20.0, 0.1)
    fill_rect(cells, res, 0.0, 18.9, 20.0, 19.0)
    fill_rect(cells, res, 0.0, 0.0, 0.1, 19.0)
    fill_rect(cells, res, 19.9, 0.0, 20.0, 19.0)
    # shelving blocks; the gap between them is the central passage (1.2 m),
    # the gaps to the outer walls are the lower/upper corridors (2.4 m)
    fill_rect(cells, res, 4.5, 2.5, 16.5, 8.4)
    fill_rect(cells, res, 4.5, 9.6, 16.5, 16.5)
    return OccupancyGrid(res, cells)


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    make_room().save(OUT / "room.map")
    make_warehouse().save(OUT / "warehouse.map")
    print(f"maps written to {OUT}")


if __name__ == "__main__":
    main()
