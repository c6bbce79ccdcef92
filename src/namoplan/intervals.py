"""Time-cost intervals: the common currency of strategy comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


@dataclass(frozen=True)
class CostInterval:
    """Closed interval [lo, hi] of time cost in seconds.

    ``hi = inf`` is the no-path sentinel; ``lo = inf`` only together with
    ``hi = inf``.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and not math.isinf(self.hi):
            raise ValueError("lo may be infinite only when hi is")

    @staticmethod
    def point(value: float) -> "CostInterval":
        return CostInterval(value, value)

    @staticmethod
    def infinite() -> "CostInterval":
        return CostInterval(INF, INF)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.hi)

    def __add__(self, other: "CostInterval") -> "CostInterval":
        return CostInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: float) -> "CostInterval":
        if factor < 0:
            raise ValueError("negative scale factor")
        if factor == 0.0:
            # 0 * inf is taken as 0: no blockage risk nullifies the cost.
            return CostInterval(0.0, 0.0)
        return CostInterval(self.lo * factor, self.hi * factor)

    def midpoint(self) -> float:
        if math.isinf(self.hi):
            return INF
        return 0.5 * (self.lo + self.hi)
