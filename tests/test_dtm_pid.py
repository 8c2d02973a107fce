"""PID controller (Eq. 4.1) and PID-driven policies."""

import pytest

from repro.dtm.base import ThermalReading
from repro.dtm.pid import (
    AMB_GAINS,
    AMB_INTEGRAL_ENABLE_C,
    AMB_TARGET_C,
    DRAM_GAINS,
    PIDController,
    PIDGains,
)
from repro.dtm.pid_policies import PIDPolicy
from repro.errors import ConfigurationError


def _controller(**kwargs) -> PIDController:
    defaults = dict(
        gains=AMB_GAINS, target_c=109.8, integral_enable_c=109.0
    )
    defaults.update(kwargs)
    return PIDController(**defaults)


def test_paper_constants():
    assert (AMB_GAINS.kc, AMB_GAINS.ki, AMB_GAINS.kd) == (10.4, 180.24, 0.001)
    assert (DRAM_GAINS.kc, DRAM_GAINS.ki, DRAM_GAINS.kd) == (12.4, 155.12, 0.001)
    assert AMB_TARGET_C == 109.8
    assert AMB_INTEGRAL_ENABLE_C == 109.0


def test_cold_temperature_saturates_high():
    pid = _controller()
    assert pid.update(60.0, 0.01) == 5.0  # OUTPUT_MAX


def test_hot_temperature_saturates_low():
    pid = _controller()
    assert pid.update(120.0, 0.01) == -5.0  # OUTPUT_MIN


def test_output_tracks_error_sign():
    pid = _controller()
    above = pid.update(109.9, 0.01)
    pid.reset()
    below = pid.update(109.7, 0.01)
    assert above < below


def test_integral_disabled_below_enable_threshold():
    pid = _controller()
    for _ in range(100):
        pid.update(105.0, 0.01)
    assert pid.integral == 0.0


def test_integral_accumulates_above_threshold():
    pid = _controller()
    pid.update(109.5, 0.01)
    pid.update(109.5, 0.01)
    assert pid.integral != 0.0


def test_integral_freezes_when_saturated():
    """Anti-windup: with the output pinned at the low rail and the error
    still pushing down, the integral must stop growing (§4.3.4)."""
    pid = _controller()
    for _ in range(50):
        pid.update(115.0, 0.01)  # way above target -> saturated low
    frozen = pid.integral
    pid.update(115.0, 0.01)
    assert pid.integral == frozen


def test_integral_resumes_after_turnaround():
    pid = _controller()
    for _ in range(50):
        pid.update(115.0, 0.01)
    # Temperature falls below target: error flips, integral unwinds.
    before = pid.integral
    pid.update(109.2, 0.01)
    assert pid.integral > before


def test_normalized_maps_rails_to_unit_interval():
    pid = _controller()
    assert pid.normalized(-5.0) == 0.0
    assert pid.normalized(5.0) == 1.0
    assert pid.normalized(0.0) == 0.5


def test_reset_clears_state():
    pid = _controller()
    pid.update(109.5, 0.01)
    pid.reset()
    assert pid.integral == 0.0


def test_gain_validation():
    with pytest.raises(ConfigurationError):
        PIDGains(kc=0.0, ki=1.0, kd=0.0)
    with pytest.raises(ConfigurationError):
        _controller().update(100.0, 0.0)


def test_pid_policy_full_speed_when_cold():
    policy = PIDPolicy("acg")
    decision = policy.decide(ThermalReading(60.0, 40.0), 0.01)
    assert decision.active_cores == 4
    assert decision.memory_on


def test_pid_policy_throttles_when_hot():
    policy = PIDPolicy("acg")
    decision = policy.decide(ThermalReading(112.0, 80.0), 0.01)
    assert decision.active_cores == 0


def test_pid_policy_safety_net_at_tdp():
    for scheme in ("bw", "acg", "cdvfs"):
        policy = PIDPolicy(scheme)
        decision = policy.decide(ThermalReading(110.0, 80.0), 0.01)
        assert not decision.memory_on


def test_pid_policy_intermediate_band():
    policy = PIDPolicy("cdvfs")
    # Slightly above target: some but not full throttling after a while.
    decision = None
    for _ in range(20):
        decision = policy.decide(ThermalReading(109.9, 80.0), 0.01)
    assert decision is not None
    assert 0 < decision.dvfs_level


def test_pid_policy_bw_scheme_caps_bandwidth():
    policy = PIDPolicy("bw")
    decision = policy.decide(ThermalReading(109.9, 80.0), 0.01)
    # Some ladder rung below "no limit" after seeing a hot reading.
    assert decision.emergency_level >= 1


def test_pid_policy_dram_controller_binds_under_fdhs():
    policy = PIDPolicy("acg")
    # Hot DRAM, cool AMB: the DRAM controller must throttle.
    decision = policy.decide(ThermalReading(90.0, 85.5), 0.01)
    assert decision.active_cores < 4


def test_pid_policy_unknown_scheme():
    with pytest.raises(ConfigurationError):
        PIDPolicy("warp")


def test_pid_policy_name():
    assert PIDPolicy("cdvfs").name == "DTM-CDVFS+PID"
