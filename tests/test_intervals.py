"""Cost-interval arithmetic and the no-path sentinel."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from namoplan.intervals import INF, CostInterval

finite_intervals = st.tuples(
    st.floats(0.0, 1e6), st.floats(0.0, 1e6)
).map(lambda t: CostInterval(min(t), max(t)))


def test_point_and_width():
    iv = CostInterval.point(7.0)
    assert iv.lo == iv.hi == 7.0
    assert iv.hi - iv.lo == 0.0
    assert iv.midpoint() == 7.0


def test_invalid_orderings_rejected():
    with pytest.raises(ValueError):
        CostInterval(5.0, 3.0)
    with pytest.raises(ValueError):
        CostInterval(-1.0, 3.0)
    with pytest.raises(ValueError):
        CostInterval(INF, 10.0)


def test_infinite_sentinel():
    iv = CostInterval.infinite()
    assert iv.is_infinite
    assert math.isinf(iv.midpoint())
    assert (iv + CostInterval(1.0, 2.0)).is_infinite


def test_addition_endpointwise():
    a = CostInterval(10.0, 12.0)
    b = CostInterval(2.85, 4.75)
    c = a + b
    assert c.lo == pytest.approx(12.85)
    assert c.hi == pytest.approx(16.75)


def test_scale_by_zero_nullifies_even_infinity():
    assert CostInterval.infinite().scale(0.0) == CostInterval(0.0, 0.0)


def test_scale_negative_rejected():
    with pytest.raises(ValueError):
        CostInterval(1.0, 2.0).scale(-0.5)


@given(finite_intervals, finite_intervals)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(finite_intervals, finite_intervals, finite_intervals)
def test_addition_associates(a, b, c):
    left = (a + b) + c
    right = a + (b + c)
    assert left.lo == pytest.approx(right.lo)
    assert left.hi == pytest.approx(right.hi)


@given(finite_intervals, st.floats(0.0, 100.0))
def test_scale_preserves_ordering_and_midpoint(iv, k):
    scaled = iv.scale(k)
    assert scaled.lo <= scaled.hi
    assert scaled.midpoint() == pytest.approx(k * iv.midpoint(), abs=1e-6)


@given(finite_intervals)
def test_midpoint_inside(iv):
    assert iv.lo <= iv.midpoint() <= iv.hi
