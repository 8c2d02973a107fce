"""Property-style invariant tests for the thermal RC core and kernels.

Three families, each over randomized-but-seeded parameter grids
(hypothesis with ``derandomize=True`` so CI is deterministic):

1. **Monotone convergence** — an RC node stepped under constant power
   moves toward ``stable_c``, never overshoots it, and its distance to
   the stable point is non-increasing.
2. **dt-splitting consistency** — ``step(2dt)`` lands where
   ``step(dt); step(dt)`` lands (the Eq. 3.5 exponential composes).
3. **Batched-vs-scalar equivalence** — :class:`BatchedMemSpot` and
   :class:`MemSpot` produce *bit-identical* samples on any traffic
   sequence, for every cooling/ambient/shape combination.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import BatchedMemSpot, make_memspot
from repro.core.memspot import MemSpot
from repro.errors import ConfigurationError
from repro.params.thermal_params import (
    AOHS_1_5,
    FDHS_1_0,
    INTEGRATED_AMBIENT,
    ISOLATED_AMBIENT,
)
from repro.thermal.rc import RCNode, exponential_step

_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

_taus = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
_temps = st.floats(min_value=-20.0, max_value=150.0, allow_nan=False)
_dts = st.floats(min_value=1e-4, max_value=30.0, allow_nan=False)


# ---------------------------------------------------------------------------
# 1. Monotone convergence toward stable_c
# ---------------------------------------------------------------------------


@_SETTINGS
@given(tau=_taus, start=_temps, stable=_temps, dt=_dts)
def test_rc_node_converges_monotonically(tau, start, stable, dt):
    node = RCNode(tau, start)
    gap = abs(stable - start)
    for _ in range(64):
        temp = node.step(stable, dt)
        new_gap = abs(stable - temp)
        # Never overshoots and never moves away.
        assert new_gap <= gap + 1e-12
        if stable >= start:
            assert start - 1e-12 <= temp <= stable + 1e-12
        else:
            assert stable - 1e-12 <= temp <= start + 1e-12
        gap = new_gap
    # After 64 steps of at least dt/tau >= 2e-7 each the gap must have
    # shrunk by the analytic factor exp(-64 * dt / tau).
    expected = abs(stable - start) * math.exp(-64.0 * dt / tau)
    assert gap <= expected * (1.0 + 1e-9) + 1e-9


@_SETTINGS
@given(tau=_taus, start=_temps, stable=_temps)
def test_rc_node_reaches_stable_after_many_taus(tau, start, stable):
    node = RCNode(tau, start)
    for _ in range(40):
        node.step(stable, tau)  # one tau per step -> e^-40 residual
    assert node.temperature_c == pytest.approx(stable, abs=1e-6)


# ---------------------------------------------------------------------------
# 2. dt-splitting consistency
# ---------------------------------------------------------------------------


@_SETTINGS
@given(tau=_taus, start=_temps, stable=_temps, dt=_dts)
def test_rc_step_dt_splitting(tau, start, stable, dt):
    whole = RCNode(tau, start)
    halved = RCNode(tau, start)
    whole.step(stable, 2.0 * dt)
    halved.step(stable, dt)
    halved.step(stable, dt)
    assert whole.temperature_c == pytest.approx(
        halved.temperature_c, abs=1e-9, rel=1e-9
    )


@_SETTINGS
@given(tau=_taus, start=_temps, stable=_temps, dt=_dts)
def test_exponential_step_dt_splitting(tau, start, stable, dt):
    whole = exponential_step(start, stable, 2.0 * dt, tau)
    half = exponential_step(start, stable, dt, tau)
    split = exponential_step(half, stable, dt, tau)
    assert whole == pytest.approx(split, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# 3. Batched-vs-scalar kernel equivalence
# ---------------------------------------------------------------------------

#: (channels, DIMMs per channel): every chain length from 1 to 8, so
#: both the flat 4-DIMM body and the generic loop meet the oracle.
_SHAPES = (
    (4, 4), (2, 8), (1, 1), (3, 6), (1, 2), (2, 3), (4, 5), (1, 7),
)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cooling=st.sampled_from((AOHS_1_5, FDHS_1_0)),
    ambient=st.sampled_from((ISOLATED_AMBIENT, INTEGRATED_AMBIENT)),
    shape=st.sampled_from(_SHAPES),
    warm=st.booleans(),
)
def test_batched_kernel_matches_scalar_bitwise(seed, cooling, ambient, shape, warm):
    channels, dimms = shape
    scalar = MemSpot(cooling, ambient, channels, dimms, warm_start=warm)
    batched = BatchedMemSpot(cooling, ambient, channels, dimms, warm_start=warm)
    assert scalar.sample() == batched.sample()
    rng = random.Random(seed)
    for step in range(60):
        read = rng.random() * 2.5e10
        write = rng.random() * 1.2e10
        heating = rng.random() * 10.0
        dt = 1.0 if step % 17 == 0 else 0.01
        assert scalar.step(read, write, heating, dt) == batched.step(
            read, write, heating, dt
        ), f"diverged at step {step}"
    scalar.reset()
    batched.reset()
    assert scalar.sample() == batched.sample()


@pytest.mark.parametrize("dimms", range(1, 9))
def test_batched_kernel_matches_scalar_at_every_chain_length(dimms):
    """Deterministic companion to the property above: each chain length
    1-8 is stepped against the scalar oracle from a shuffled thermal
    state, so any position (the last one included) can be the hottest
    and every position reaches the reported peaks."""
    scalar = MemSpot(FDHS_1_0, INTEGRATED_AMBIENT, 2, dimms)
    batched = BatchedMemSpot(FDHS_1_0, INTEGRATED_AMBIENT, 2, dimms)
    rng = random.Random(dimms)
    start = {
        "t_ambient": rng.uniform(30.0, 50.0),
        "t_amb": [rng.uniform(40.0, 120.0) for _ in range(dimms)],
        "t_dram": [rng.uniform(40.0, 100.0) for _ in range(dimms)],
    }
    start["t_amb"][-1] = 130.0
    start["t_dram"][-1] = 110.0
    scalar.load_thermal_state(start)
    batched.load_thermal_state(start)
    for step in range(80):
        inputs = (rng.random() * 3e10, rng.random() * 1.5e10,
                  rng.random() * 12.0, 0.01)
        assert scalar.step(*inputs) == batched.step(*inputs), step
    assert scalar.thermal_state() == batched.thermal_state()


def test_flat_chain_resumes_bitwise_from_mid_run_thermal_state():
    """A mid-run ``thermal_state()`` loaded into a fresh 4-DIMM kernel
    continues exactly (``==``) as the uninterrupted kernel does."""
    rng = random.Random(7)
    stream = [
        (rng.random() * 2.5e10, rng.random() * 1.2e10, rng.random() * 9.0,
         0.01)
        for _ in range(120)
    ]
    whole = BatchedMemSpot(AOHS_1_5, INTEGRATED_AMBIENT)
    first = BatchedMemSpot(AOHS_1_5, INTEGRATED_AMBIENT)
    for inputs in stream[:50]:
        whole.step(*inputs)
        first.step(*inputs)
    resumed = BatchedMemSpot(AOHS_1_5, INTEGRATED_AMBIENT)
    resumed.load_thermal_state(json.loads(json.dumps(first.thermal_state())))
    for inputs in stream[50:]:
        assert whole.step(*inputs) == resumed.step(*inputs)
    assert whole.thermal_state() == resumed.thermal_state()


def test_batched_kernel_rejects_bad_inputs():
    batched = BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT)
    with pytest.raises(ConfigurationError):
        batched.step(-1.0, 0.0, 0.0, 0.01)
    with pytest.raises(ConfigurationError):
        BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT, physical_channels=0)


def test_make_memspot_factory():
    assert isinstance(make_memspot("scalar", cooling=AOHS_1_5,
                                   ambient=ISOLATED_AMBIENT), MemSpot)
    assert isinstance(make_memspot("batched", cooling=AOHS_1_5,
                                   ambient=ISOLATED_AMBIENT), BatchedMemSpot)
    with pytest.raises(ConfigurationError):
        make_memspot("warp", cooling=AOHS_1_5, ambient=ISOLATED_AMBIENT)


def test_batched_kernel_exposes_chain_state():
    batched = BatchedMemSpot(FDHS_1_0, ISOLATED_AMBIENT, dimms_per_channel=4)
    batched.step(2e10, 1e10, 0.0, 1.0)
    amb = batched.amb_temperatures_c
    # Nearest DIMM carries the most bypass traffic and runs hottest;
    # the last AMB idles cooler (§5.4.1 / Table 3.1).
    assert amb[0] == max(amb)
    assert amb[-1] == min(amb)
    assert len(batched.dram_temperatures_c) == 4


# ---------------------------------------------------------------------------
# RCNode cached-gain staleness regression (the (dt, tau) cache key)
# ---------------------------------------------------------------------------


def test_rc_node_gain_cache_tracks_tau_changes():
    """Regression: a retuned/copied node must not reuse a stale gain.

    The (dt -> gain) cache once keyed on dt alone, so code that mutated
    or rebuilt ``_tau_s`` (e.g. a copied node, or an ablation sweeping
    time constants in place) kept stepping with the old time constant.
    """
    node = RCNode(tau_s=50.0, initial_c=0.0)
    node.step(100.0, 1.0)  # populate the gain cache at dt=1
    # Simulate the hazard: tau changes underneath the cached gain.
    node._tau_s = 5.0
    node.reset(0.0)
    stepped = node.step(100.0, 1.0)
    fresh = RCNode(tau_s=5.0, initial_c=0.0).step(100.0, 1.0)
    assert stepped == fresh
    assert stepped == pytest.approx(100.0 * (1.0 - math.exp(-1.0 / 5.0)))
