"""Strategy selection between bypassing and removing a blocking obstacle."""

from __future__ import annotations

import math

from .intervals import CostInterval


def decide(bypass: CostInterval, removal: CostInterval) -> dict | None:
    """The strategy whose cost interval has the smaller midpoint (the
    expected cost under a uniform distribution over the interval), with the
    details a decision trace entry records. Ties go to bypass, which never
    risks a failed manipulation. None when both midpoints are infinite."""
    u_by = bypass.midpoint()
    u_re = removal.midpoint()
    if math.isinf(u_by) and math.isinf(u_re):
        return None
    return {"choice": "bypass" if u_by <= u_re else "remove",
            "bypass_cost": [bypass.lo, bypass.hi],
            "removal_cost": [removal.lo, removal.hi],
            "u_bypass": u_by,
            "u_removal": u_re}
