"""Reference work that tracks how fast this host runs Python right now.

On a shared host the speed of a core swings by up to 2x from one second to
the next: a neighbour on the same core or on the memory bus slows every
instruction, and CPU time does not show it. `Calibrator.slice` runs a fixed
piece of work of the kinds namoplan's hot loops are made of and records the
CPU seconds it took:

- an interpreter loop over ints and a small dict,
- bulk numpy arithmetic over several MB of arrays,
- scalar reads and writes into a freshly allocated numpy grid, as A* and
  ray casting do cell by cell.

The untraced benchmark runs a slice at the start and end of each pass and,
through `tick`, about every `interval` CPU seconds inside episodes. An
episode's CPU time, less the slices inside it, is scaled by
`REFERENCE_S / s`, where `s` is the mean of the slices inside it and of the
nearest one on either side. The figures then read as CPU time on a host
where one slice takes `REFERENCE_S`.

The work does not touch namoplan, so no change to the program moves it.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# About the CPU seconds of one slice on the 2-core host of the baseline in
# README.md when it is quiet. Only a unit: reported times are scaled to it.
REFERENCE_S = 0.007

_rng = random.Random(0)
_BULK = np.random.default_rng(0).random((420, 420))
_CELLS = [(_rng.randrange(300), _rng.randrange(300)) for _ in range(10000)]


def _interp() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(10000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += i * 3 % 7
    return total


def _bulk() -> float:
    return float(np.sqrt(_BULK * 1.5 + 2.0).sum())


def _scalar() -> int:
    grid = np.full((300, 300), np.inf)
    hits = 0
    for y, x in _CELLS:
        if grid[y, x] > 1.0:
            grid[y, x] = 0.5
        else:
            hits += 1
    return hits


class Calibrator:
    """Runs slices and keeps their (start, end) CPU seconds in order.

    `tick` runs a slice only when `interval` CPU seconds have passed since
    the last one; called ahead of calls the program makes many times per
    episode, it samples the host's speed all through a long episode."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.slices: list[tuple[float, float]] = []

    @property
    def times(self) -> list[float]:
        return [end - start for start, end in self.slices]

    def slice(self) -> None:
        start = time.process_time()
        _interp()
        _bulk()
        _scalar()
        self.slices.append((start, time.process_time()))

    def tick(self) -> None:
        if not self.slices or \
                time.process_time() - self.slices[-1][1] >= self.interval:
            self.slice()

    def warm(self, n: int = 10) -> None:
        for _ in range(n):
            self.slice()
        self.slices.clear()

    def scale(self) -> float:
        """Factor that turns CPU seconds measured while the slices kept ran
        into reference seconds, from their median."""
        return REFERENCE_S / statistics.median(self.times)

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the CPU interval [start, end], less the
        slices run inside it, scaled by the mean of those slices and of the
        nearest slice on either side."""
        inside = [(a, b) for a, b in self.slices if start <= a < end]
        before = [(a, b) for a, b in self.slices if b <= start][-1:]
        after = [(a, b) for a, b in self.slices if a >= end][:1]
        window = [b - a for a, b in before + inside + after]
        own = end - start - sum(b - a for a, b in inside)
        return own * REFERENCE_S / statistics.fmean(window)
