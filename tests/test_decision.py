"""Strategy selection: midpoint utility, tie rules, trace details."""

import math

import numpy as np
import pytest

from namoplan.decision import decide
from namoplan.intervals import CostInterval


def test_laplace_midpoints():
    removal = CostInterval(1000, 1000)
    assert decide(CostInterval(10, 20), removal)["u_bypass"] == 15.0
    assert decide(CostInterval.point(7.0), removal)["u_bypass"] == 7.0
    assert math.isinf(decide(CostInterval(0, math.inf), removal)["u_bypass"])


def test_laplace_matches_uniform_mean():
    rng = np.random.default_rng(21)
    iv = CostInterval(13.0, 42.0)
    samples = rng.uniform(iv.lo, iv.hi, 1_000_000)
    assert decide(iv, CostInterval.infinite())["u_bypass"] == \
        pytest.approx(float(samples.mean()), rel=1e-3)


def test_decide_prefers_smaller_utility():
    d = decide(CostInterval(10, 20), CostInterval(23, 34))
    assert d["choice"] == "bypass"
    assert d["u_bypass"] == 15.0 and d["u_removal"] == 28.5
    assert decide(CostInterval(40, 60), CostInterval(23, 34))["choice"] == "remove"


def test_decide_doorway_forces_removal():
    d = decide(CostInterval.infinite(), CostInterval(23, 34))
    assert d["choice"] == "remove"


def test_tie_goes_to_bypass():
    d = decide(CostInterval(10, 20), CostInterval(14, 16))
    assert d["choice"] == "bypass"


def test_both_infinite_is_no_strategy():
    assert decide(CostInterval.infinite(), CostInterval.infinite()) is None


def test_decision_invariant_under_scaling_and_shift():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = sorted(rng.uniform(0, 100, 2))
        b = sorted(rng.uniform(0, 100, 2))
        lam = rng.uniform(0.01, 50)
        shift = CostInterval(*sorted(rng.uniform(0, 30, 2)))
        base = decide(CostInterval(*a), CostInterval(*b))["choice"]
        scaled = decide(CostInterval(*a).scale(lam),
                        CostInterval(*b).scale(lam))["choice"]
        shifted = decide(CostInterval(*a) + shift,
                         CostInterval(*b) + shift)["choice"]
        assert base == scaled == shifted


def test_decision_record_serializes():
    d = decide(CostInterval(10, 20), CostInterval(23, 34))
    assert d == {"choice": "bypass", "bypass_cost": [10, 20],
                 "removal_cost": [23, 34], "u_bypass": 15.0, "u_removal": 28.5}
