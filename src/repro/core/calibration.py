"""Calibrating the analytic window model against the cycle-level simulator.

The window model's :class:`repro.core.windowmodel.MemoryEnvelope` has two
first-order parameters — unloaded latency and peak bandwidth — that the
cycle-level FBDIMM simulator can measure directly.  This module runs the
measurements:

- *unloaded latency*: a sparse random read stream (no queueing) through
  the full system; the mean completion latency is the envelope's
  ``idle_latency_s``.
- *peak bandwidth*: a saturating sequential stream; the sustained
  throughput is ``peak_bandwidth_bytes_per_s``.

Tests assert the defaults sit near the measured values, closing the loop
between the two levels without paying cycle-level cost inside the
thermal experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.windowmodel import MemoryEnvelope
from repro.dram.system import MemorySystem
from repro.dram.trafficgen import poisson_trace, stream_trace
from repro.errors import SimulationError


@dataclass(frozen=True)
class CalibrationReport:
    """Measured envelope parameters and the runs behind them."""

    idle_latency_s: float
    peak_bandwidth_bytes_per_s: float
    idle_requests: int
    stream_requests: int


def measure_idle_latency_s(requests: int = 400) -> float:
    """Mean read latency of a sparse (unloaded) random stream."""
    system = MemorySystem()
    trace = poisson_trace(
        count=requests,
        address_space_bytes=min(system.mapper.capacity_bytes, 1 << 30),
        mean_interarrival_s=2e-6,  # ~0.5 M req/s: far below saturation.
        seed=7,
    )
    completions = system.run(trace)
    if not completions:
        raise SimulationError("calibration run produced no completions")
    return sum(c.latency_s for c in completions) / len(completions)


def measure_peak_bandwidth_bytes_per_s(requests: int = 8000) -> float:
    """Sustained throughput of a saturating sequential read stream."""
    system = MemorySystem()
    # All requests available at time zero.
    completions = system.run(stream_trace(count=requests, interarrival_s=0.0))
    if not completions:
        raise SimulationError("calibration run produced no completions")
    elapsed = completions[-1].completion_s
    total_bytes = sum(c.request.bytes for c in completions)
    if elapsed <= 0:
        raise SimulationError("calibration stream finished in zero time")
    return total_bytes / elapsed


def calibrate_envelope(
    idle_requests: int = 400, stream_requests: int = 8000
) -> CalibrationReport:
    """Run both measurements and report the envelope parameters."""
    idle = measure_idle_latency_s(requests=idle_requests)
    peak = measure_peak_bandwidth_bytes_per_s(requests=stream_requests)
    return CalibrationReport(
        idle_latency_s=idle,
        peak_bandwidth_bytes_per_s=peak,
        idle_requests=idle_requests,
        stream_requests=stream_requests,
    )
