"""Synthetic request-stream generators for the cycle-level simulator.

These generators stand in for the address traces the paper collected from
SPEC workloads; they exercise the same code paths (bank conflicts, link
serialization, read/write mixing) with controllable intensity.
"""

from __future__ import annotations

import random

from repro.dram.commands import MemoryRequest, RequestKind
from repro.errors import ConfigurationError


def stream_trace(
    count: int,
    line_bytes: int = 64,
    interarrival_s: float = 3e-9,
    write_fraction: float = 0.0,
    start_address: int = 0,
    request_bytes: int = 32,
    seed: int = 0,
) -> list[MemoryRequest]:
    """Sequential (streaming) accesses at a fixed arrival rate.

    Consecutive lines map to consecutive channels/DIMMs/banks under the
    interleaved address map, so a stream spreads perfectly — this is the
    peak-bandwidth workload.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if interarrival_s < 0:
        raise ConfigurationError("interarrival must be non-negative")
    rng = random.Random(seed)
    requests = []
    for index in range(count):
        kind = RequestKind.WRITE if rng.random() < write_fraction else RequestKind.READ
        requests.append(
            MemoryRequest(
                kind=kind,
                address=start_address + index * line_bytes,
                arrival_s=index * interarrival_s,
                bytes=request_bytes,
            )
        )
    return requests


def random_trace(
    count: int,
    address_space_bytes: int,
    line_bytes: int = 64,
    interarrival_s: float = 3e-9,
    write_fraction: float = 0.0,
    request_bytes: int = 32,
    seed: int = 0,
) -> list[MemoryRequest]:
    """Uniformly random line addresses at a fixed arrival rate."""
    if address_space_bytes < line_bytes:
        raise ConfigurationError("address space must hold at least one line")
    rng = random.Random(seed)
    lines = address_space_bytes // line_bytes
    requests = []
    for index in range(count):
        kind = RequestKind.WRITE if rng.random() < write_fraction else RequestKind.READ
        requests.append(
            MemoryRequest(
                kind=kind,
                address=rng.randrange(lines) * line_bytes,
                arrival_s=index * interarrival_s,
                bytes=request_bytes,
            )
        )
    return requests


def poisson_trace(
    count: int,
    address_space_bytes: int,
    mean_interarrival_s: float,
    line_bytes: int = 64,
    write_fraction: float = 0.0,
    request_bytes: int = 32,
    seed: int = 0,
) -> list[MemoryRequest]:
    """Random addresses with exponential interarrival times.

    Models the bursty arrivals of cache-miss traffic better than a fixed
    rate; used by the latency-under-load calibration.
    """
    if mean_interarrival_s <= 0:
        raise ConfigurationError("mean interarrival must be positive")
    rng = random.Random(seed)
    lines = address_space_bytes // line_bytes
    if lines < 1:
        raise ConfigurationError("address space must hold at least one line")
    now = 0.0
    requests = []
    for _ in range(count):
        now += rng.expovariate(1.0 / mean_interarrival_s)
        kind = RequestKind.WRITE if rng.random() < write_fraction else RequestKind.READ
        requests.append(
            MemoryRequest(
                kind=kind,
                address=rng.randrange(lines) * line_bytes,
                arrival_s=now,
                bytes=request_bytes,
            )
        )
    return requests
