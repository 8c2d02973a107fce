"""The per-channel memory controller.

Implements the paper's controller configuration (Table 4.1): a 64-entry
request buffer, 12 ns fixed overhead, close-page auto-precharge policy,
and first-ready FCFS scheduling — the oldest request whose bank can
accept an ACTIVATE earliest is issued next, reordering within the buffer
window only.

The controller also implements the *open-loop row-activation throttle*
used by the Intel 5000X chipset (§5.2.1): an upper bound on ACTIVATE
commands per time window.  Because close-page mode issues exactly one
activation per request, capping activations caps bandwidth — which is how
both DTM-BW and the worst-case safety net limit memory throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dram.amb import AMB
from repro.dram.bank import DimmDevices
from repro.dram.channel import FBDIMMChannel
from repro.dram.commands import MemoryRequest
from repro.dram.stats import ChannelStats
from repro.errors import ConfigurationError
from repro.params.dram_timing import DDR2Timing, FBDIMMChannelParams
from repro.units import ns_to_s


@dataclass(frozen=True)
class CompletedRequest:
    """The resolved life cycle of one request."""

    request: MemoryRequest
    start_s: float
    activate_s: float
    completion_s: float

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency."""
        return self.completion_s - self.request.arrival_s


class ActivationThrottle:
    """Open-loop cap on row activations per window (Intel 5000X style)."""

    def __init__(self, max_activations: int | None, window_s: float = 0.066) -> None:
        if max_activations is not None and max_activations < 1:
            raise ConfigurationError("activation cap must be >= 1 or None")
        if window_s <= 0:
            raise ConfigurationError("throttle window must be positive")
        self._max = max_activations
        self._window_s = window_s
        self._window_index = 0
        self._count = 0

    @property
    def enabled(self) -> bool:
        """Whether a cap is active."""
        return self._max is not None

    def earliest_allowed(self, desired_s: float) -> float:
        """Earliest time an ACTIVATE may issue at or after ``desired_s``.

        The throttle window only moves forward: once activations have
        been pushed into window k, no request may activate in an earlier
        window (the chipset counts against the current wall window).
        """
        if self._max is None:
            return desired_s
        t = max(desired_s, self._window_index * self._window_s)
        window = math.floor(t / self._window_s)
        if window > self._window_index:
            return t
        if self._count < self._max:
            return t
        return (self._window_index + 1) * self._window_s

    def record(self, activate_s: float) -> None:
        """Account one issued ACTIVATE."""
        if self._max is None:
            return
        window = math.floor(activate_s / self._window_s)
        if window > self._window_index:
            self._window_index = window
            self._count = 0
        self._count += 1


class ChannelController:
    """Memory controller for one FBDIMM channel with its DIMM chain."""

    def __init__(
        self,
        dimms: int,
        banks_per_dimm: int,
        timing: DDR2Timing | None = None,
        params: FBDIMMChannelParams | None = None,
        activation_cap_per_window: int | None = None,
        throttle_window_s: float = 0.066,
    ) -> None:
        if dimms < 1:
            raise ConfigurationError("a channel needs at least one DIMM")
        self._timing = timing if timing is not None else DDR2Timing()
        self._params = params if params is not None else FBDIMMChannelParams()
        self._channel = FBDIMMChannel(self._timing, self._params)
        self._devices = [DimmDevices(banks_per_dimm, self._timing) for _ in range(dimms)]
        self._ambs = [AMB(i, dimms, self._params) for i in range(dimms)]
        self._throttle = ActivationThrottle(activation_cap_per_window, throttle_window_s)
        self.stats = ChannelStats()

    @property
    def ambs(self) -> list[AMB]:
        """The channel's AMBs, nearest first."""
        return self._ambs

    @property
    def channel(self) -> FBDIMMChannel:
        """The frame links (for tests)."""
        return self._channel

    def set_activation_cap(self, cap: int | None, window_s: float = 0.066) -> None:
        """Install or remove the open-loop activation throttle."""
        self._throttle = ActivationThrottle(cap, window_s)

    def _estimate_start(self, request: MemoryRequest, dimm: int, bank: int) -> float:
        """Estimate when the request's ACTIVATE could issue (for scheduling)."""
        ready_s = request.arrival_s + ns_to_s(self._params.controller_overhead_ns)
        device = self._devices[dimm]
        bank_ready = device.bank(bank).next_activate_s
        return max(ready_s, bank_ready)

    def run(self, requests: list[MemoryRequest], decode) -> list[CompletedRequest]:
        """Simulate a request stream to completion.

        Args:
            requests: the memory requests (any order; sorted internally).
            decode: callable mapping a request address to an object with
                ``dimm`` and ``bank`` attributes (channel field ignored:
                the caller routes requests to controllers).

        Returns:
            One :class:`CompletedRequest` per input, in completion order.
        """
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        window = self._params.controller_queue_entries
        completed: list[CompletedRequest] = []
        while pending:
            # First-ready FCFS within the buffer window: choose the request
            # whose bank is ready earliest; break ties by arrival order.
            head = pending[:window]
            best_index = 0
            best_key = (math.inf, math.inf)
            for index, request in enumerate(head):
                coords = decode(request.address)
                estimate = self._estimate_start(request, coords.dimm, coords.bank)
                key = (estimate, request.arrival_s)
                if key < best_key:
                    best_key = key
                    best_index = index
            request = pending.pop(best_index)
            completed.append(self._issue(request, decode(request.address)))
        completed.sort(key=lambda c: c.completion_s)
        return completed

    def _issue(self, request: MemoryRequest, coords) -> CompletedRequest:
        """Drive one request through links, AMBs and banks."""
        dimm_index = coords.dimm
        device = self._devices[dimm_index]
        amb = self._ambs[dimm_index]
        ready_s = request.arrival_s + ns_to_s(self._params.controller_overhead_ns)

        # Southbound: the command frame (and write-data frames) travel to
        # the target AMB through every nearer AMB.
        if request.is_write:
            frame_start_s = self._channel.send_write(ready_s, request.bytes)
        else:
            frame_start_s = self._channel.send_command(ready_s)
        at_amb_s = (
            frame_start_s
            + self._channel.southbound.frame_period_s
            + amb.southbound_delay_s()
        )

        # Open-loop activation throttle (also covers DTM-BW bandwidth caps).
        earliest_act_s = self._throttle.earliest_allowed(at_amb_s)
        schedule = device.schedule_access(coords.bank, earliest_act_s, request.is_write)
        self._throttle.record(schedule.activate_s)

        # Traffic accounting for the power model (Fig. 3.2 categories).
        amb.record_local(request.bytes, request.is_write)
        for upstream in self._ambs[:dimm_index]:
            upstream.record_bypass(request.bytes, request.is_write)

        if request.is_write:
            completion_s = schedule.burst_end_s
        else:
            data_at_controller_s = schedule.burst_end_s + amb.northbound_delay_s()
            completion_s = self._channel.return_read(data_at_controller_s, request.bytes)

        latency_s = completion_s - request.arrival_s
        self.stats.record(request.is_write, request.bytes, latency_s, completion_s)
        return CompletedRequest(
            request=request,
            start_s=ready_s,
            activate_s=schedule.activate_s,
            completion_s=completion_s,
        )

    def reset(self) -> None:
        """Reset banks, links, AMB traffic and statistics."""
        for device in self._devices:
            device.reset()
        for amb in self._ambs:
            amb.reset_traffic()
        self._channel.reset()
        self.stats = ChannelStats()
