"""Chip power as a function of DTM state (Table 4.4, Chapter 5)."""

import pytest

from repro.cpu.power import measured_chip_power_w, simulated_chip_power_w
from repro.errors import ConfigurationError


def test_simulated_power_ts_states():
    # DTM-TS: 260 W running, 62 W with memory off (Table 4.4).
    assert simulated_chip_power_w(4, 0, memory_on=True) == pytest.approx(260.0)
    assert simulated_chip_power_w(4, 0, memory_on=False) == pytest.approx(62.0)


def test_simulated_power_acg_states():
    for cores, expected in ((0, 62.0), (1, 111.5), (2, 161.0), (3, 210.5), (4, 260.0)):
        assert simulated_chip_power_w(cores, 0, True) == pytest.approx(expected)


def test_simulated_power_cdvfs_states():
    for level, expected in ((0, 260.0), (1, 193.4), (2, 116.5), (3, 80.6), (4, 62.0)):
        assert simulated_chip_power_w(4, level, True) == pytest.approx(expected)


def test_simulated_power_comb_composition():
    # 2 active cores at DVFS level 2: standby + 2 * per-core dynamic.
    expected = 62.0 + 2 * (116.5 - 62.0) / 4
    assert simulated_chip_power_w(2, 2, True) == pytest.approx(expected)


def test_simulated_power_validation():
    with pytest.raises(ConfigurationError):
        simulated_chip_power_w(7, 0, True)


def test_measured_power_monotone_in_utilization():
    low = measured_chip_power_w([0.1] * 4, 0)
    high = measured_chip_power_w([0.9] * 4, 0)
    assert high > low
