"""MEMSpot: the level-2 power/thermal emulator."""

import pytest

from repro.core.memspot import MemSpot
from repro.errors import ConfigurationError
from repro.params.thermal_params import (
    AOHS_1_5,
    FDHS_1_0,
    INTEGRATED_AMBIENT,
    ISOLATED_AMBIENT,
)
from repro.thermal.isolated import stable_temperatures
from repro.units import gbps


def _memspot(**kwargs) -> MemSpot:
    defaults = dict(cooling=AOHS_1_5, ambient=ISOLATED_AMBIENT)
    defaults.update(kwargs)
    return MemSpot(**defaults)


def test_warm_start_at_idle_stable():
    spot = _memspot()
    sample = spot.sample()
    # AOHS_1.5, inlet 50 degC, idle AMB power 5.1 W (nearest DIMM),
    # idle DRAM 0.98 W: Eq. 3.3 gives ~100.7 degC.
    expected = stable_temperatures(50.0, 5.1, 0.98, AOHS_1_5)
    assert sample.amb_c == pytest.approx(expected.amb_c)
    assert sample.dram_c == pytest.approx(expected.dram_c)


def test_idle_power_accounting():
    spot = _memspot()
    # 4 channels x (3 x 5.1 + 4.0 AMB idle + 4 x 0.98 DRAM static).
    expected = 4 * (3 * 5.1 + 4.0 + 4 * 0.98)
    assert spot.idle_power_w() == pytest.approx(expected)


def test_traffic_heats_the_dimms():
    spot = _memspot()
    start = spot.sample().amb_c
    for _ in range(100):
        sample = spot.step(gbps(15.0), gbps(4.0), 0.0, 1.0)
    assert sample.amb_c > start


def test_zero_traffic_stays_at_idle_stable():
    spot = _memspot()
    start = spot.sample().amb_c
    sample = spot.step(0.0, 0.0, 0.0, 10.0)
    assert sample.amb_c == pytest.approx(start, abs=0.01)


def test_memory_power_includes_all_channels():
    spot = _memspot()
    sample = spot.step(gbps(16.0), gbps(4.0), 0.0, 1.0)
    # Eq. 3.1 + 3.2 across 16 DIMMs: idle + dynamic.
    assert sample.memory_power_w > spot.idle_power_w()


def test_hottest_dimm_is_position_zero():
    spot = _memspot()
    for _ in range(50):
        spot.step(gbps(16.0), gbps(4.0), 0.0, 1.0)
    temps = [m.temperatures.amb_c for m in spot.dimm_models]
    assert temps[0] == max(temps)
    assert temps[0] > temps[-1]


def test_integrated_ambient_follows_cpu():
    spot = _memspot(ambient=INTEGRATED_AMBIENT)
    inlet = spot.ambient_model.inlet_c
    sample = None
    for _ in range(100):
        sample = spot.step(0.0, 0.0, 4 * 1.55 * 0.5, 1.0)
    assert sample.ambient_c > inlet


def test_isolated_ambient_ignores_cpu():
    spot = _memspot()
    sample = spot.step(0.0, 0.0, 100.0, 10.0)
    assert sample.ambient_c == pytest.approx(50.0)


def test_fdhs_dram_gets_hotter_relative_to_limit():
    """Under FDHS_1.0 the DRAM reaches its 85 degC limit before the AMB
    reaches 110 degC; under AOHS_1.5 the AMB binds first (§4.4.1)."""
    load = dict(read_bytes_per_s=gbps(14.0), write_bytes_per_s=gbps(4.0))
    fdhs = MemSpot(FDHS_1_0, ISOLATED_AMBIENT)
    aohs = MemSpot(AOHS_1_5, ISOLATED_AMBIENT)
    for _ in range(600):
        f = fdhs.step(cpu_heating_sum=0.0, dt_s=1.0, **load)
        a = aohs.step(cpu_heating_sum=0.0, dt_s=1.0, **load)
    assert (85.0 - f.dram_c) < (110.0 - f.amb_c)
    assert (110.0 - a.amb_c) < (85.0 - a.dram_c)


def test_reset_restores_warm_start():
    spot = _memspot()
    start = spot.sample().amb_c
    for _ in range(50):
        spot.step(gbps(16.0), gbps(4.0), 0.0, 1.0)
    spot.reset()
    assert spot.sample().amb_c == pytest.approx(start)


def test_validation():
    with pytest.raises(ConfigurationError):
        MemSpot(AOHS_1_5, ISOLATED_AMBIENT, physical_channels=0)
