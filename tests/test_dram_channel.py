"""FBDIMM channel links and AMB behaviour."""

import pytest

from repro.dram.amb import AMB
from repro.dram.channel import FBDIMMChannel, FrameLink
from repro.errors import ConfigurationError
from repro.params.dram_timing import DDR2Timing, FBDIMMChannelParams
from repro.units import ns_to_s

TIMING = DDR2Timing()
PARAMS = FBDIMMChannelParams()


def test_frame_link_serializes():
    link = FrameLink(frame_period_s=6e-9)
    first = link.book(0.0)
    second = link.book(0.0)
    assert first == 0.0
    assert second == pytest.approx(6e-9)


def test_frame_link_respects_earliest():
    link = FrameLink(frame_period_s=6e-9)
    start = link.book(100e-9)
    assert start == pytest.approx(100e-9)


def test_frame_link_multi_frame_booking():
    link = FrameLink(frame_period_s=6e-9)
    link.book(0.0, frames=2)
    assert link.next_free_s == pytest.approx(12e-9)
    assert link.frames_sent == 2


def test_frame_link_utilization():
    link = FrameLink(frame_period_s=6e-9)
    link.book(0.0, frames=10)
    assert link.utilization(120e-9) == pytest.approx(0.5)


def test_channel_write_needs_two_frames():
    channel = FBDIMMChannel(TIMING, PARAMS)
    channel.send_write(0.0, payload_bytes=32)
    assert channel.southbound.frames_sent == 2  # 16 B per frame


def test_channel_read_return_one_frame():
    channel = FBDIMMChannel(TIMING, PARAMS)
    end = channel.return_read(0.0, payload_bytes=32)
    assert channel.northbound.frames_sent == 1
    assert end == pytest.approx(channel.northbound.frame_period_s)


def test_command_frame_single():
    channel = FBDIMMChannel(TIMING, PARAMS)
    channel.send_command(0.0)
    assert channel.southbound.frames_sent == 1


def test_northbound_peak_matches_ddr2():
    channel = FBDIMMChannel(TIMING, PARAMS)
    period = channel.northbound.frame_period_s
    assert 32 / period == pytest.approx(667e6 * 8, rel=1e-3)


def test_amb_southbound_delay_grows_with_position():
    near = AMB(0, 8, PARAMS)
    far = AMB(7, 8, PARAMS)
    assert far.southbound_delay_s() > near.southbound_delay_s()
    hops = 7 * ns_to_s(PARAMS.amb_hop_ns)
    assert far.southbound_delay_s() - near.southbound_delay_s() == pytest.approx(hops)


def test_variable_read_latency():
    near = AMB(0, 8, PARAMS)
    far = AMB(7, 8, PARAMS)
    assert near.northbound_delay_s() < far.northbound_delay_s()


def test_fixed_read_latency_when_vrl_off():
    params = FBDIMMChannelParams(variable_read_latency=False)
    near = AMB(0, 8, params)
    far = AMB(7, 8, params)
    assert near.northbound_delay_s() == far.northbound_delay_s()
    assert near.northbound_delay_s() == pytest.approx(7 * ns_to_s(params.amb_hop_ns))


def test_amb_traffic_accounting():
    amb = AMB(1, 4, PARAMS)
    amb.record_local(32, is_write=False)
    amb.record_local(32, is_write=True)
    amb.record_bypass(64, is_write=False)
    assert amb.traffic.local_read_bytes == 32
    assert amb.traffic.local_write_bytes == 32
    assert amb.traffic.bypass_read_bytes == 64
    assert amb.traffic.local_bytes == 64
    assert amb.traffic.bypass_bytes == 64


def test_amb_reset_traffic():
    amb = AMB(0, 4, PARAMS)
    amb.record_local(32, is_write=False)
    amb.reset_traffic()
    assert amb.traffic.local_bytes == 0


def test_link_validation():
    with pytest.raises(ConfigurationError):
        FrameLink(frame_period_s=0.0)
    link = FrameLink(6e-9)
    with pytest.raises(ConfigurationError):
        link.book(0.0, frames=0)
    channel = FBDIMMChannel(TIMING, PARAMS)
    with pytest.raises(ConfigurationError):
        channel.send_write(0.0, payload_bytes=0)
