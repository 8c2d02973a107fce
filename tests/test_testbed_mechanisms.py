"""Chapter 5 mechanisms: hotplug, cpufreq, time slices, chipset throttle."""

import pytest

from repro.errors import ConfigurationError
from repro.testbed.chipset import OpenLoopThrottle
from repro.testbed.daughtercard import DaughterCard
from repro.testbed.linux import CPUFreq, CPUHotplug, TimeSliceModel
from repro.units import CACHE_LINE_BYTES

MB = 1024 * 1024


def test_hotplug_starts_all_online():
    hotplug = CPUHotplug(4)
    assert hotplug.online_cores() == [0, 1, 2, 3]


def test_hotplug_core0_protected():
    # One socket: even a request for zero cores keeps core 0 online.
    hotplug = CPUHotplug(2)
    assert hotplug.apply_count(0, sockets=1) == [0]


def test_hotplug_disable_reenable():
    hotplug = CPUHotplug(4)
    assert hotplug.apply_count(3) == [0, 1, 2]
    hotplug.reset()
    assert hotplug.online_cores() == [0, 1, 2, 3]


def test_apply_count_balances_sockets():
    hotplug = CPUHotplug(4)
    # 2 active: one core per socket (slots 0 and 2).
    assert hotplug.apply_count(2) == [0, 2]
    # 3 active: socket 0 keeps both, socket 1 keeps one.
    assert hotplug.apply_count(3) == [0, 1, 2]
    assert hotplug.apply_count(4) == [0, 1, 2, 3]


def test_apply_count_clamps_to_one_per_socket():
    hotplug = CPUHotplug(4)
    assert hotplug.apply_count(0) == [0, 2]


def test_cpufreq_ladder():
    cpufreq = CPUFreq()
    assert cpufreq.frequency_hz == 3.0e9
    cpufreq.set_level(3)
    assert cpufreq.frequency_hz == 2.0e9
    assert cpufreq.voltage_v == 1.0375


def test_cpufreq_by_frequency():
    cpufreq = CPUFreq()
    frequencies = []
    for level in range(len(cpufreq.points)):
        cpufreq.set_level(level)
        frequencies.append(cpufreq.frequency_hz)
    assert frequencies == [3.0e9, 2.667e9, 2.333e9, 2.0e9]
    with pytest.raises(ConfigurationError):
        cpufreq.set_level(len(cpufreq.points))
    assert cpufreq.level == 3


def test_cpufreq_reset():
    cpufreq = CPUFreq()
    cpufreq.set_level(2)
    cpufreq.reset()
    assert cpufreq.level == 0


def test_time_slice_surcharge_shrinks_with_longer_slices():
    model = TimeSliceModel(cache_bytes=4 * MB)
    short = model.extra_misses_per_s(0.005, resident_bytes=2 * MB)
    default = model.extra_misses_per_s(0.100, resident_bytes=2 * MB)
    assert short > default
    assert short == pytest.approx(default * 20.0)


def test_time_slice_refill_bounded_by_cache():
    model = TimeSliceModel(cache_bytes=4 * MB)
    huge = model.extra_misses_per_s(0.1, resident_bytes=100 * MB)
    capped = model.extra_misses_per_s(0.1, resident_bytes=4 * MB)
    assert huge == pytest.approx(capped)


def test_time_slice_validation():
    model = TimeSliceModel(cache_bytes=4 * MB)
    with pytest.raises(ConfigurationError):
        model.extra_misses_per_s(0.0, resident_bytes=MB)


def test_throttle_bandwidth_roundtrip():
    throttle = OpenLoopThrottle()
    throttle.program_bandwidth(3.0e9)
    cap = throttle.bandwidth_cap_bytes_per_s()
    assert cap == pytest.approx(3.0e9, rel=0.01)


def test_throttle_window_is_66ms():
    assert OpenLoopThrottle.WINDOW_S == pytest.approx(0.0646, abs=0.002)


def test_throttle_disable():
    throttle = OpenLoopThrottle()
    throttle.program_bandwidth(3.0e9)
    throttle.program_bandwidth(None)
    assert throttle.bandwidth_cap_bytes_per_s() is None


def test_throttle_clamp():
    throttle = OpenLoopThrottle()
    # The activation count rounds down, so the cap never exceeds the target.
    throttle.program_bandwidth(3.0e9)
    assert throttle.bandwidth_cap_bytes_per_s() <= 3.0e9
    # A target below one line per window still admits one activation.
    throttle.program_bandwidth(1.0)
    assert throttle.bandwidth_cap_bytes_per_s() == (
        CACHE_LINE_BYTES / OpenLoopThrottle.WINDOW_S
    )


def test_throttle_validation():
    with pytest.raises(ConfigurationError):
        OpenLoopThrottle().program_bandwidth(-1.0)


def test_daughtercard_channels_and_logs():
    card = DaughterCard(sampling_period_s=0.01)
    card.add_channel("amb")
    card.add_channel("inlet", noisy=False)
    for step in range(100):
        card.sample(step * 0.01, {"amb": 80.0, "inlet": 40.0})
    assert len(card.log("amb")) == 100
    assert card.log("inlet").values == [40.0] * 100


def test_daughtercard_respects_sampling_period():
    card = DaughterCard(sampling_period_s=1.0)
    card.add_channel("amb", noisy=False)
    card.sample(0.0, {"amb": 80.0})
    card.sample(0.5, {"amb": 90.0})  # too soon: dropped
    card.sample(1.0, {"amb": 85.0})
    assert card.log("amb").values == [80.0, 85.0]


def test_daughtercard_duplicate_channel_rejected():
    card = DaughterCard()
    card.add_channel("amb")
    with pytest.raises(ConfigurationError):
        card.add_channel("amb")


def test_daughtercard_reset():
    card = DaughterCard()
    card.add_channel("amb")
    card.sample(0.0, {"amb": 80.0})
    card.reset()
    assert len(card.log("amb")) == 0
