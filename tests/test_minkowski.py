"""Geometry tests: boosts, intervals, frame-relative order, order flips."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from flashlab.minkowski import (
    RAPIDITY_LIMIT,
    Event,
    Frame,
    Region,
    SimultaneityTie,
    boost,
    interval,
    order_flip_rapidity,
    precedes,
    region_frame_order,
    regions_spacelike,
    spacelike,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
rapidity = st.floats(min_value=-5, max_value=5, allow_nan=False)


def test_boost_identity():
    e = boost(Event(1.0, 2.0), Frame(0.0))
    assert (e.t, e.x) == pytest.approx((1.0, 2.0))


def test_boost_ln2():
    # cosh(ln 2) = 5/4, sinh(ln 2) = 3/4
    e = boost(Event(0.0, 1.0), Frame(math.log(2.0)))
    assert (e.t, e.x) == pytest.approx((-0.75, 1.25), abs=1e-12)


def test_interval_signs():
    assert interval(Event(0, 0), Event(0, 1)) == pytest.approx(-1.0)
    assert interval(Event(0, 0), Event(1, 0)) == pytest.approx(1.0)
    assert interval(Event(0, 0), Event(1, 1)) == pytest.approx(0.0)


def test_spacelike_examples():
    assert spacelike(Event(0, 0), Event(0, 1))
    assert not spacelike(Event(0, 0), Event(2, 1))
    assert spacelike(Event(0.5, 0), Event(0, 2))  # 0.25 - 4 < 0


def test_precedes_lab_and_boosted():
    e1, e2 = Event(0, 0), Event(0.5, 2)
    assert precedes(e1, e2, Frame(0.0))
    # dt' = 0.5 cosh - 2 sinh < 0 once tanh(chi) > 0.25; tanh(0.5) ~ 0.462
    assert not precedes(e1, e2, Frame(0.5))


def test_precedes_tie_surfaces():
    with pytest.raises(SimultaneityTie):
        precedes(Event(0, 1), Event(0, -1), Frame(0.0))


def test_order_flip_spacelike():
    e1, e2 = Event(0, 0), Event(0.5, 2)
    frame = order_flip_rapidity(e1, e2)
    assert math.tanh(frame.rapidity) > 0.25
    assert precedes(e1, e2, Frame(0.0)) and not precedes(e1, e2, frame)


def test_order_flip_simultaneous_pair():
    frame = order_flip_rapidity(Event(0, 0), Event(0, 2))
    assert frame.rapidity > 0.0
    assert not precedes(Event(0, 0), Event(0, 2), frame)  # e2 now first


def test_order_flip_timelike_errors():
    with pytest.raises(ValueError, match="frame-invariant"):
        order_flip_rapidity(Event(0, 0), Event(2, 1))


def test_frame_guard():
    with pytest.raises(ValueError):
        Frame(RAPIDITY_LIMIT + 1)
    Frame(RAPIDITY_LIMIT)  # boundary allowed


def test_region_validation():
    with pytest.raises(ValueError):
        Region(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Region(0, 1, 1, 0)


def test_regions_spacelike_examples():
    a = Region(0, 1, 0, 1)
    far = Region(0, 1, 10, 11)    # max dt = 1 < min dx = 9
    near = Region(5, 6, 2, 3)     # corner (1,1)-(5,2) is timelike
    assert regions_spacelike(a, far)
    assert not regions_spacelike(a, near)
    assert not regions_spacelike(a, Region(0, 1, 0, 1))  # identical boxes
    # overlapping x ranges, whatever the time spans: some pair shares an x
    assert not regions_spacelike(Region(0, 1, -20, 20), far)  # contains far
    assert not regions_spacelike(Region(0, 0.1, 10.5, 30), Region(0, 0.1, 10, 11))


def test_region_frame_order():
    a = Region(0, 1, -11, -10)
    b = Region(0, 1, 10, 11)
    assert region_frame_order(a, b, Frame(0.0)) is None
    assert region_frame_order(a, b, Frame(-0.5)) == "A"
    assert region_frame_order(a, b, Frame(0.5)) == "B"


@given(t=finite, x=finite, chi1=rapidity, chi2=rapidity)
@settings(max_examples=100, deadline=None)
def test_boost_composition(t, x, chi1, chi2):
    e = Event(t, x)
    once = boost(boost(e, Frame(chi1)), Frame(chi2))
    combined = boost(e, Frame(chi1 + chi2))
    assert once.t == pytest.approx(combined.t, abs=1e-9)
    assert once.x == pytest.approx(combined.x, abs=1e-9)


@given(t1=finite, x1=finite, t2=finite, x2=finite, chi=rapidity)
@settings(max_examples=100, deadline=None)
def test_interval_invariance(t1, x1, t2, x2, chi):
    e1, e2 = Event(t1, x1), Event(t2, x2)
    f = Frame(chi)
    assert interval(boost(e1, f), boost(e2, f)) == pytest.approx(
        interval(e1, e2), abs=1e-9 * max(1.0, abs(interval(e1, e2)))
    )


def test_spacelike_pairs_always_flip():
    rng_angles = __import__("numpy").random.default_rng(42)
    for _ in range(300):
        t1, x1 = rng_angles.uniform(-5, 5, size=2)
        dt = rng_angles.uniform(-1, 1)
        dx_mag = abs(dt) + rng_angles.uniform(0.1, 3.0)
        dx = dx_mag * (1 if rng_angles.uniform() < 0.5 else -1)
        e1, e2 = Event(t1, x1), Event(t1 + dt, x1 + dx)
        frame = order_flip_rapidity(e1, e2)
        try:
            lab_first = precedes(e1, e2, Frame(0.0))
        except SimultaneityTie:
            lab_first = True  # region-label convention: first argument first
        assert precedes(e1, e2, frame) is (not lab_first)


def test_timelike_pairs_never_flip():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(30):
        t1, x1 = rng.uniform(-5, 5, size=2)
        dx = rng.uniform(-1, 1)
        dt_mag = abs(dx) + rng.uniform(0.1, 3.0)
        dt = dt_mag * (1 if rng.uniform() < 0.5 else -1)
        e1, e2 = Event(t1, x1), Event(t1 + dt, x1 + dx)
        orders = {precedes(e1, e2, Frame(chi)) for chi in rng.uniform(-5, 5, size=1000)}
        assert len(orders) == 1


@given(t1=finite, x1=finite, t2=finite, x2=finite, chi=rapidity)
@settings(max_examples=100, deadline=None)
def test_precedes_antisymmetric_and_spacelike_symmetric(t1, x1, t2, x2, chi):
    e1, e2 = Event(t1, x1), Event(t2, x2)
    assert spacelike(e1, e2) == spacelike(e2, e1)
    try:
        forward = precedes(e1, e2, Frame(chi))
        backward = precedes(e2, e1, Frame(chi))
    except SimultaneityTie:
        return
    assert forward is (not backward)
