"""Eq. 3.5 thermal-RC dynamics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ThermalModelError
from repro.thermal.rc import RCNode, exponential_step


def test_step_moves_toward_stable():
    assert exponential_step(50.0, 100.0, 10.0, 50.0) > 50.0
    assert exponential_step(120.0, 100.0, 10.0, 50.0) < 120.0


def test_step_exact_one_tau():
    # After exactly tau seconds, the gap shrinks by 1/e.
    after = exponential_step(0.0, 100.0, 50.0, 50.0)
    assert after == pytest.approx(100.0 * (1 - math.exp(-1)))


def test_zero_dt_is_identity():
    assert exponential_step(42.0, 100.0, 0.0, 50.0) == pytest.approx(42.0)


def test_rejects_bad_arguments():
    with pytest.raises(ThermalModelError):
        exponential_step(0.0, 1.0, -1.0, 50.0)
    with pytest.raises(ThermalModelError):
        exponential_step(0.0, 1.0, 1.0, 0.0)


def test_node_many_small_steps_equal_one_big_step():
    # The exponential update composes exactly across subdivisions.
    node_a = RCNode(50.0, 20.0)
    node_b = RCNode(50.0, 20.0)
    for _ in range(100):
        node_a.step(100.0, 1.0)
    node_b.step(100.0, 100.0)
    assert node_a.temperature_c == pytest.approx(node_b.temperature_c, rel=1e-9)


def test_node_never_overshoots():
    node = RCNode(50.0, 0.0)
    for _ in range(1000):
        node.step(100.0, 5.0)
    assert node.temperature_c <= 100.0 + 1e-9


def test_time_to_reach_matches_simulation():
    # Inverting Eq. 3.5: t = tau * ln((stable - T0) / (stable - target)).
    predicted = 50.0 * math.log((120.0 - 80.0) / (120.0 - 110.0))
    node = RCNode(50.0, 80.0)
    assert node.step(120.0, predicted) == pytest.approx(110.0)
    sim = RCNode(50.0, 80.0)
    elapsed = 0.0
    while sim.temperature_c < 110.0:
        sim.step(120.0, 0.01)
        elapsed += 0.01
    assert elapsed == pytest.approx(predicted, rel=0.01)


def test_time_to_reach_unreachable():
    # A target beyond the stable temperature is never reached, even
    # after an unbounded step.
    node = RCNode(50.0, 80.0)
    assert node.step(100.0, math.inf) == pytest.approx(100.0)
    assert node.temperature_c < 105.0


def test_time_to_reach_already_there():
    node = RCNode(50.0, 80.0)
    assert node.step(100.0, 0.0) == 80.0


@given(
    st.floats(min_value=-50, max_value=150),
    st.floats(min_value=-50, max_value=150),
    st.floats(min_value=0.001, max_value=1000),
    st.floats(min_value=0.1, max_value=1000),
)
def test_step_bounded_between_current_and_stable(current, stable, dt, tau):
    after = exponential_step(current, stable, dt, tau)
    low, high = min(current, stable), max(current, stable)
    assert low - 1e-9 <= after <= high + 1e-9


@given(st.floats(min_value=0.01, max_value=500))
def test_longer_dt_gets_closer(dt):
    near = exponential_step(0.0, 100.0, dt, 50.0)
    nearer = exponential_step(0.0, 100.0, dt * 2, 50.0)
    assert nearer >= near - 1e-9
