"""Multi-channel memory system and calibration."""

import pytest

from repro.core.calibration import (
    calibrate_envelope,
    measure_idle_latency_s,
    measure_peak_bandwidth_bytes_per_s,
)
from repro.core.windowmodel import MemoryEnvelope
from repro.dram.system import MemorySystem
from repro.dram.trafficgen import poisson_trace, random_trace, stream_trace
from repro.errors import ConfigurationError


def test_requests_route_to_all_channels():
    system = MemorySystem()
    requests = stream_trace(count=64, interarrival_s=10e-9)
    system.run(requests)
    for controller in system.controllers:
        assert controller.stats.total_requests == 16


def test_stream_bandwidth_scales_with_channels():
    system = MemorySystem()
    requests = stream_trace(count=4000, interarrival_s=0.0)
    system.run(requests)
    total = system.total_stats()
    # 4 channels x ~5 GB/s.
    assert total.throughput_gbps() > 16.0


def test_random_trace_spreads_banks():
    system = MemorySystem()
    requests = random_trace(count=1000, address_space_bytes=1 << 30, seed=3)
    completed = system.run(requests)
    assert len(completed) == 1000


def test_empty_run():
    assert MemorySystem().run([]) == []


def test_activation_cap_validation():
    system = MemorySystem()
    with pytest.raises(ConfigurationError):
        system.set_activation_cap(0)


def test_idle_latency_measurement():
    latency = measure_idle_latency_s(requests=150)
    # Unloaded close-page read: ~50-90 ns on this platform.
    assert 40e-9 < latency < 100e-9


def test_peak_bandwidth_measurement():
    peak = measure_peak_bandwidth_bytes_per_s(requests=4000)
    assert peak > 16e9


def test_envelope_defaults_match_cycle_level_measurements():
    """The window model's default envelope must track the cycle-level
    simulator: latency within a factor-ish band, and the default combined
    read+write peak (25.6 GB/s) above the measured read-only peak but
    below read + write link capacity (§3.2)."""
    report = calibrate_envelope(idle_requests=150, stream_requests=4000)
    default = MemoryEnvelope()
    assert default.idle_latency_s == pytest.approx(report.idle_latency_s, rel=0.5)
    read_peak = report.peak_bandwidth_bytes_per_s
    assert read_peak < default.peak_bandwidth_bytes_per_s < read_peak * 1.5


def test_poisson_trace_orders_arrivals():
    trace = poisson_trace(
        count=100, address_space_bytes=1 << 24, mean_interarrival_s=1e-7
    )
    times = [r.arrival_s for r in trace]
    assert times == sorted(times)
