"""Eq. 3.1 / Eq. 3.2 power models and the per-DIMM traffic split."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.power import (
    ChannelTraffic,
    amb_power_w,
    channel_dimm_powers,
    dram_power_w,
)
from repro.units import gbps


def test_dram_static_power():
    assert dram_power_w(0.0, 0.0) == pytest.approx(0.98)


def test_dram_power_example():
    # 1 GB/s read + 0.5 GB/s write: 0.98 + 1.12 + 0.58.
    assert dram_power_w(gbps(1.0), gbps(0.5)) == pytest.approx(0.98 + 1.12 + 0.58)


def test_dram_write_costs_more_than_read():
    assert dram_power_w(0.0, gbps(1.0)) > dram_power_w(gbps(1.0), 0.0)


def test_dram_power_rejects_negative():
    with pytest.raises(ConfigurationError):
        dram_power_w(-1.0, 0.0)


def test_amb_idle_power_by_position():
    assert amb_power_w(0.0, 0.0, is_last_dimm=True) == pytest.approx(4.0)
    assert amb_power_w(0.0, 0.0, is_last_dimm=False) == pytest.approx(5.1)


def test_amb_power_example():
    # 2 GB/s local + 4 GB/s bypass on a middle AMB.
    expected = 5.1 + 0.19 * 4.0 + 0.75 * 2.0
    assert amb_power_w(gbps(2.0), gbps(4.0)) == pytest.approx(expected)


def test_amb_local_traffic_costs_more():
    local = amb_power_w(gbps(1.0), 0.0, is_last_dimm=True)
    bypass = amb_power_w(0.0, gbps(1.0), is_last_dimm=True)
    assert local > bypass


@given(
    st.floats(min_value=0, max_value=30e9),
    st.floats(min_value=0, max_value=30e9),
)
def test_amb_power_monotone_in_traffic(local, bypass):
    base = amb_power_w(local, bypass)
    assert amb_power_w(local + 1e9, bypass) > base
    assert amb_power_w(local, bypass + 1e9) > base


def test_channel_split_local_share():
    traffic = ChannelTraffic(read_bytes_per_s=gbps(3.2), write_bytes_per_s=gbps(0.8))
    powers = channel_dimm_powers(traffic, dimms=4)
    assert len(powers) == 4
    # Every DIMM sees the same local traffic, so DRAM power is equal.
    dram_values = {round(p.dram_w, 9) for p in powers}
    assert len(dram_values) == 1


def test_channel_split_bypass_decreases_along_chain():
    traffic = ChannelTraffic(gbps(4.0), gbps(1.0))
    powers = channel_dimm_powers(traffic, dimms=4)
    amb_values = [p.amb_w for p in powers]
    # Positions 0..2 are strictly decreasing (less bypass); the last
    # AMB additionally idles 1.1 W lower.
    assert amb_values[0] > amb_values[1] > amb_values[2] > amb_values[3]


def test_hottest_dimm_is_nearest_controller():
    traffic = ChannelTraffic(gbps(4.0), gbps(1.0))
    powers = channel_dimm_powers(traffic, dimms=4)
    assert max(powers, key=lambda p: p.total_w).position == 0


def test_single_dimm_channel_is_last():
    traffic = ChannelTraffic(gbps(2.0), 0.0)
    powers = channel_dimm_powers(traffic, dimms=1)
    # One DIMM: no bypass, idles at the last-DIMM 4.0 W.
    assert powers[0].amb_w == pytest.approx(4.0 + 0.75 * 2.0)


def test_channel_split_conserves_local_traffic():
    traffic = ChannelTraffic(gbps(4.0), gbps(2.0))
    powers = channel_dimm_powers(traffic, dimms=4)
    # Sum of local DRAM dynamic power equals the whole channel's.
    total_dram_dynamic = sum(p.dram_w - 0.98 for p in powers)
    expected = 1.12 * 4.0 + 1.16 * 2.0
    assert total_dram_dynamic == pytest.approx(expected)


def test_channel_requires_dimm():
    with pytest.raises(ConfigurationError):
        channel_dimm_powers(ChannelTraffic(0.0, 0.0), dimms=0)


@given(
    st.floats(min_value=0, max_value=20e9),
    st.floats(min_value=0, max_value=20e9),
    st.integers(min_value=1, max_value=8),
)
def test_dimm_power_positive_property(read, write, dimms):
    powers = channel_dimm_powers(ChannelTraffic(read, write), dimms)
    assert all(p.total_w > 0 for p in powers)
    assert all(p.amb_w >= 4.0 - 1e-9 for p in powers)
