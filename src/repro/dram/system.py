"""Multi-channel FBDIMM memory-system facade.

Routes requests to per-channel controllers using the interleaved address
map and aggregates statistics.  This is the object the calibration layer
(:mod:`repro.core.calibration`) drives to extract the latency/bandwidth
envelope consumed by the analytic window model.
"""

from __future__ import annotations

from repro.dram.address import AddressMapper
from repro.dram.commands import MemoryRequest
from repro.dram.controller import ChannelController, CompletedRequest
from repro.dram.stats import ChannelStats
from repro.errors import ConfigurationError
from repro.params.dram_timing import SimulatedSystemParams


class MemorySystem:
    """A complete FBDIMM memory subsystem: the paper's simulated platform
    (Table 4.1: 4 physical channels x 4 DIMMs x 8 banks, DDR2-667)."""

    def __init__(self) -> None:
        params = SimulatedSystemParams()
        self._mapper = AddressMapper(
            channels=params.physical_channels,
            dimms_per_channel=params.dimms_per_channel,
            banks_per_dimm=params.banks_per_dimm,
            line_bytes=params.line_bytes,
        )
        self._controllers = [
            ChannelController(
                dimms=params.dimms_per_channel,
                banks_per_dimm=params.banks_per_dimm,
                timing=params.timing,
                params=params.channel,
            )
            for _ in range(params.physical_channels)
        ]

    @property
    def mapper(self) -> AddressMapper:
        """The address map."""
        return self._mapper

    @property
    def controllers(self) -> list[ChannelController]:
        """Per-channel controllers."""
        return self._controllers

    def run(self, requests: list[MemoryRequest]) -> list[CompletedRequest]:
        """Simulate a request stream across all channels.

        Returns all completions sorted by completion time.
        """
        if not requests:
            return []
        per_channel: list[list[MemoryRequest]] = [[] for _ in self._controllers]
        for request in requests:
            coords = self._mapper.decode(request.address)
            per_channel[coords.channel].append(request)
        completed: list[CompletedRequest] = []
        for controller, channel_requests in zip(self._controllers, per_channel):
            if not channel_requests:
                continue
            completed.extend(controller.run(channel_requests, self._mapper.decode))
        completed.sort(key=lambda c: c.completion_s)
        return completed

    def total_stats(self) -> ChannelStats:
        """Statistics merged across every channel."""
        total = ChannelStats()
        for controller in self._controllers:
            total = total.merge(controller.stats)
        return total

    def set_activation_cap(self, cap: int | None, window_s: float = 0.066) -> None:
        """Apply an open-loop activation cap to every channel.

        The per-channel cap is the system cap divided evenly; passing
        ``None`` removes throttling.
        """
        if cap is not None:
            if cap < 1:
                raise ConfigurationError("activation cap must be >= 1 or None")
            per_channel = max(1, cap // len(self._controllers))
        else:
            per_channel = None
        for controller in self._controllers:
            controller.set_activation_cap(per_channel, window_s)

    def reset(self) -> None:
        """Reset all channels."""
        for controller in self._controllers:
            controller.reset()
