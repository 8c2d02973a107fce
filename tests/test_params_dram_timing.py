"""Table 4.1 timing parameters."""

import pytest

from repro.core.windowmodel import L2_CAPACITY_BYTES
from repro.dtm.base import CORES
from repro.errors import ConfigurationError
from repro.params.dram_timing import DDR2Timing, FBDIMMChannelParams, SimulatedSystemParams


def test_default_timing_is_555():
    t = DDR2Timing()
    assert t.trcd_ns == 15.0
    assert t.tcl_ns == 15.0
    assert t.trp_ns == 15.0


def test_secondary_timings_match_table_4_1():
    t = DDR2Timing()
    assert (t.tras_ns, t.trc_ns, t.twtr_ns, t.twl_ns) == (39.0, 54.0, 9.0, 12.0)
    assert (t.twpd_ns, t.trpd_ns, t.trrd_ns) == (36.0, 9.0, 9.0)


def test_clock_period_667():
    assert DDR2Timing().clock_period_ns == pytest.approx(2000.0 / 667.0)


def test_burst_duration_is_two_clocks():
    t = DDR2Timing()
    # Burst of 4 at DDR = 2 bus clocks.
    assert t.burst_duration_ns == pytest.approx(2 * t.clock_period_ns)


def test_trc_must_cover_tras():
    with pytest.raises(ConfigurationError):
        DDR2Timing(tras_ns=60.0, trc_ns=54.0)


def test_northbound_matches_ddr2_channel():
    t = DDR2Timing()
    c = FBDIMMChannelParams()
    # §3.2: the northbound link matches one DDR2 channel: 667 MT * 8 B.
    peak = c.northbound_read_bytes / (c.frame_period_ns(t) * 1e-9)
    assert peak == pytest.approx(667e6 * 8, rel=1e-3)


def test_southbound_is_half_northbound():
    # §3.2: a southbound frame carries 16 B of write data, a northbound
    # frame 32 B of read data, at the same frame rate.
    c = FBDIMMChannelParams()
    assert c.southbound_write_bytes / c.northbound_read_bytes == pytest.approx(0.5)


def test_system_peak_bandwidth_about_21gbps():
    # §2.2: "peak memory bandwidth of 21 GB/s" over four physical channels.
    params = SimulatedSystemParams()
    channel = params.channel
    per_channel = channel.northbound_read_bytes / (channel.frame_period_ns(params.timing) * 1e-9)
    assert params.physical_channels * per_channel == pytest.approx(21.3e9, rel=0.02)


def test_system_dimm_count():
    params = SimulatedSystemParams()
    assert params.physical_channels * params.dimms_per_channel == 16


def test_table_4_1_constants_match_the_system_params():
    """The core count the Chapter 4 schemes report and the L2 the window
    model and the cache-aware scheduler share are Table 4.1's."""
    params = SimulatedSystemParams()
    assert CORES == params.cores
    assert L2_CAPACITY_BYTES == params.l2_capacity_bytes


def test_system_rejects_mismatched_channels():
    with pytest.raises(ConfigurationError):
        SimulatedSystemParams(logical_channels=3, physical_channels=4)


def test_dtm_interval_defaults():
    params = SimulatedSystemParams()
    assert params.dtm_interval_s == pytest.approx(0.010)
    assert params.dtm_overhead_s == pytest.approx(25e-6)
