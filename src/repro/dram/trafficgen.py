"""Synthetic request-stream generators for the cycle-level simulator.

These generators stand in for the address traces the paper collected from
SPEC workloads; they exercise the same code paths (bank conflicts, link
serialization) with controllable intensity.  Every request reads
:data:`REQUEST_BYTES` at a cache-line address.
"""

from __future__ import annotations

import random

from repro.dram.commands import MemoryRequest, RequestKind
from repro.errors import ConfigurationError
from repro.units import CACHE_LINE_BYTES

#: Bytes each request transfers.
REQUEST_BYTES = 32


def stream_trace(count: int, interarrival_s: float = 3e-9) -> list[MemoryRequest]:
    """Sequential (streaming) reads at a fixed arrival rate.

    Consecutive lines map to consecutive channels/DIMMs/banks under the
    interleaved address map, so a stream spreads perfectly — this is the
    peak-bandwidth workload.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if interarrival_s < 0:
        raise ConfigurationError("interarrival must be non-negative")
    return [
        MemoryRequest(
            kind=RequestKind.READ,
            address=index * CACHE_LINE_BYTES,
            arrival_s=index * interarrival_s,
            bytes=REQUEST_BYTES,
        )
        for index in range(count)
    ]


def random_trace(
    count: int, address_space_bytes: int, seed: int = 0
) -> list[MemoryRequest]:
    """Uniformly random line addresses, one every 3 ns."""
    if address_space_bytes < CACHE_LINE_BYTES:
        raise ConfigurationError("address space must hold at least one line")
    rng = random.Random(seed)
    lines = address_space_bytes // CACHE_LINE_BYTES
    return [
        MemoryRequest(
            kind=RequestKind.READ,
            address=rng.randrange(lines) * CACHE_LINE_BYTES,
            arrival_s=index * 3e-9,
            bytes=REQUEST_BYTES,
        )
        for index in range(count)
    ]


def poisson_trace(
    count: int,
    address_space_bytes: int,
    mean_interarrival_s: float,
    seed: int = 0,
) -> list[MemoryRequest]:
    """Random addresses with exponential interarrival times.

    Models the bursty arrivals of cache-miss traffic better than a fixed
    rate; used by the latency-under-load calibration.
    """
    if mean_interarrival_s <= 0:
        raise ConfigurationError("mean interarrival must be positive")
    rng = random.Random(seed)
    lines = address_space_bytes // CACHE_LINE_BYTES
    if lines < 1:
        raise ConfigurationError("address space must hold at least one line")
    now = 0.0
    requests = []
    for _ in range(count):
        now += rng.expovariate(1.0 / mean_interarrival_s)
        # An unused draw per request: each seed's address stream, and
        # so the calibrated envelope and the DRAM bench figures, rest on it.
        rng.random()
        requests.append(
            MemoryRequest(
                kind=RequestKind.READ,
                address=rng.randrange(lines) * CACHE_LINE_BYTES,
                arrival_s=now,
                bytes=REQUEST_BYTES,
            )
        )
    return requests
