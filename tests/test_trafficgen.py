"""Synthetic traffic generators."""

import pytest

from repro.dram.commands import RequestKind
from repro.dram.trafficgen import (
    poisson_trace,
    random_trace,
    stream_trace,
)
from repro.errors import ConfigurationError


def test_stream_addresses_sequential():
    trace = stream_trace(count=4)
    assert [r.address for r in trace] == [0, 64, 128, 192]


@pytest.mark.parametrize(
    "trace",
    [
        stream_trace(count=100),
        random_trace(count=100, address_space_bytes=1 << 20),
        poisson_trace(count=100, address_space_bytes=1 << 20, mean_interarrival_s=1e-7),
    ],
    ids=["stream", "random", "poisson"],
)
def test_every_request_is_a_32_byte_read_at_a_line_address(trace):
    assert all(
        r.kind is RequestKind.READ and r.bytes == 32 and r.address % 64 == 0
        for r in trace
    )


def test_stream_interarrival():
    trace = stream_trace(count=3, interarrival_s=5e-9)
    assert [r.arrival_s for r in trace] == [0.0, 5e-9, 1e-8]


def test_random_trace_within_space():
    trace = random_trace(count=500, address_space_bytes=1 << 20, seed=2)
    assert all(0 <= r.address < (1 << 20) for r in trace)
    assert all(r.address % 64 == 0 for r in trace)


def test_random_trace_deterministic_by_seed():
    a = random_trace(count=50, address_space_bytes=1 << 20, seed=3)
    b = random_trace(count=50, address_space_bytes=1 << 20, seed=3)
    assert [r.address for r in a] == [r.address for r in b]


def test_poisson_mean_interarrival():
    trace = poisson_trace(
        count=5000, address_space_bytes=1 << 20, mean_interarrival_s=1e-7, seed=4
    )
    mean = trace[-1].arrival_s / len(trace)
    assert mean == pytest.approx(1e-7, rel=0.1)


def test_generator_validation():
    with pytest.raises(ConfigurationError):
        stream_trace(count=-1)
    with pytest.raises(ConfigurationError):
        random_trace(count=1, address_space_bytes=32)
    with pytest.raises(ConfigurationError):
        poisson_trace(count=1, address_space_bytes=1 << 20, mean_interarrival_s=0.0)
