"""Property-style invariant tests for the thermal RC core and kernels.

Three families, each over randomized-but-seeded parameter grids
(hypothesis with ``derandomize=True`` so CI is deterministic):

1. **Monotone convergence** — an RC node stepped under constant power
   moves toward ``stable_c``, never overshoots it, and its distance to
   the stable point is non-increasing.
2. **dt-splitting consistency** — ``step(2dt)`` lands where
   ``step(dt); step(dt)`` lands (the Eq. 3.5 exponential composes).
3. **Batched-vs-scalar equivalence** — :class:`BatchedMemSpot`'s
   ``step(load(r, w, h), dt)`` and the per-node oracle
   :class:`MemSpot`'s ``step(r, w, h, dt)`` produce *bit-identical*
   samples on any traffic sequence, for every cooling/ambient/shape
   combination, and a load built once steps like one rebuilt each
   window.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import BatchedMemSpot
from repro.core.memspot import MemSpot
from repro.engine.codec import load_state_dict, state_dict
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


def _batched_step(kernel: BatchedMemSpot, read, write, heating, dt):
    """One window through the batched kernel's two halves."""
    return kernel.step(kernel.load(read, write, heating), dt)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cooling=st.sampled_from((AOHS_1_5, FDHS_1_0)),
    ambient=st.sampled_from((ISOLATED_AMBIENT, INTEGRATED_AMBIENT)),
    shape=st.sampled_from(_SHAPES),
)
def test_batched_kernel_matches_scalar_bitwise(seed, cooling, ambient, shape):
    channels, dimms = shape
    scalar = MemSpot(cooling, ambient, channels, dimms)
    batched = BatchedMemSpot(cooling, ambient, channels, dimms)
    assert scalar.sample() == batched.sample()
    rng = random.Random(seed)
    for step in range(60):
        read = rng.random() * 2.5e10
        write = rng.random() * 1.2e10
        heating = rng.random() * 10.0
        dt = 1.0 if step % 17 == 0 else 0.01
        assert scalar.step(read, write, heating, dt) == _batched_step(
            batched, read, write, heating, dt
        ), f"diverged at step {step}"
    scalar.reset()
    batched.reset()
    assert scalar.sample() == batched.sample()


def _scalar_state(kernel: MemSpot) -> dict:
    """The scalar oracle's temperatures in the batched kernel's
    checkpoint shape."""
    return {
        "t_ambient": kernel.ambient_model.node_temperature_c,
        "t_amb": [model.temperatures.amb_c for model in kernel.dimm_models],
        "t_dram": [model.temperatures.dram_c for model in kernel.dimm_models],
    }


def _load_scalar(kernel: MemSpot, state: dict) -> None:
    """Force the scalar oracle to a batched-kernel thermal state."""
    kernel.ambient_model.restore_node(state["t_ambient"])
    for model, amb_c, dram_c in zip(
        kernel.dimm_models, state["t_amb"], state["t_dram"]
    ):
        model.reset_to(amb_c, dram_c)


@pytest.mark.parametrize("dimms", range(1, 9))
def test_batched_kernel_matches_scalar_at_every_chain_length(dimms):
    """Deterministic companion to the property above: each chain length
    1-8, under both ambient models, is stepped against the scalar
    oracle from a shuffled thermal state, so any position (the last one
    included) can be the hottest and every position reaches the
    reported peaks."""
    for ambient in (ISOLATED_AMBIENT, INTEGRATED_AMBIENT):
        scalar = MemSpot(FDHS_1_0, ambient, 2, dimms)
        batched = BatchedMemSpot(FDHS_1_0, ambient, 2, dimms)
        rng = random.Random(dimms)
        start = {
            "t_ambient": rng.uniform(30.0, 50.0),
            "t_amb": [rng.uniform(40.0, 120.0) for _ in range(dimms)],
            "t_dram": [rng.uniform(40.0, 100.0) for _ in range(dimms)],
        }
        start["t_amb"][-1] = 130.0
        start["t_dram"][-1] = 110.0
        _load_scalar(scalar, start)
        load_state_dict(batched, start)
        for step in range(80):
            inputs = (rng.random() * 3e10, rng.random() * 1.5e10,
                      rng.random() * 12.0, 0.01)
            assert scalar.step(*inputs) == _batched_step(batched, *inputs), (
                ambient.interaction, step
            )
        assert _scalar_state(scalar) == state_dict(batched)


def test_flat_chain_resumes_bitwise_from_mid_run_thermal_state():
    """A mid-run thermal state loaded into a fresh kernel
    continues exactly (``==``) as the uninterrupted kernel and the
    scalar oracle do, on the flat 4-DIMM body and the generic loop."""
    rng = random.Random(7)
    stream = [
        (rng.random() * 2.5e10, rng.random() * 1.2e10, rng.random() * 9.0,
         0.01)
        for _ in range(120)
    ]
    for dimms in (4, 3):
        shape = (AOHS_1_5, INTEGRATED_AMBIENT, 4, dimms)
        whole = BatchedMemSpot(*shape)
        first = BatchedMemSpot(*shape)
        for inputs in stream[:50]:
            _batched_step(whole, *inputs)
            _batched_step(first, *inputs)
        state = json.loads(json.dumps(state_dict(first)))
        resumed = BatchedMemSpot(*shape)
        load_state_dict(resumed, state)
        oracle = MemSpot(*shape)
        _load_scalar(oracle, state)
        for inputs in stream[50:]:
            sample = _batched_step(whole, *inputs)
            assert sample == _batched_step(resumed, *inputs)
            assert sample == oracle.step(*inputs)
        assert state_dict(whole) == state_dict(resumed)


@pytest.mark.parametrize("ambient", [ISOLATED_AMBIENT, INTEGRATED_AMBIENT],
                         ids=["isolated", "integrated"])
@pytest.mark.parametrize("dimms", [4, 2])
def test_a_load_built_once_steps_like_one_rebuilt_every_window(dimms, ambient):
    """A window-cache hit steps the load its entry built once; that
    trajectory equals rebuilding the load every window, bit for bit,
    even while the integrated ambient node moves underneath it."""
    reused = BatchedMemSpot(AOHS_1_5, ambient, 4, dimms)
    rebuilt = BatchedMemSpot(AOHS_1_5, ambient, 4, dimms)
    inputs = (1.9e10, 0.8e10, 6.5)
    load = reused.load(*inputs)
    for step in range(400):
        assert reused.step(load, 0.01) == rebuilt.step(
            rebuilt.load(*inputs), 0.01
        ), step
    assert state_dict(reused) == state_dict(rebuilt)


def test_batched_kernel_rejects_bad_inputs():
    batched = BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT)
    with pytest.raises(ConfigurationError):
        batched.load(-1.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT, physical_channels=0)


_NOT_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", _NOT_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["read", "write", "heating"])
def test_non_finite_load_inputs_are_refused(field, bad):
    """Regression: a NaN throughput or heating sum passed the ``< 0``
    check and then lost every ``max`` against the -273.15 floor, so the
    sensors read absolute zero from then on and no DTM policy ever
    throttled."""
    kernel = BatchedMemSpot(AOHS_1_5, INTEGRATED_AMBIENT)
    before = state_dict(kernel)
    inputs = {"read": 1e10, "write": 5e9, "heating": 4.0}
    inputs[field] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        kernel.load(inputs["read"], inputs["write"], inputs["heating"])
    assert state_dict(kernel) == before


def test_batched_kernel_exposes_chain_state():
    batched = BatchedMemSpot(FDHS_1_0, ISOLATED_AMBIENT, dimms_per_channel=4)
    _batched_step(batched, 2e10, 1e10, 0.0, 1.0)
    state = state_dict(batched)
    amb = state["t_amb"]
    # Nearest DIMM carries the most bypass traffic and runs hottest;
    # the last AMB idles cooler (§5.4.1 / Table 3.1).
    assert amb[0] == max(amb)
    assert amb[-1] == min(amb)
    assert len(state["t_dram"]) == 4
