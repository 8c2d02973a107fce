"""The Advanced Memory Buffer (AMB).

Each DIMM's AMB sits between the FBDIMM channel and the DIMM's DRAM
chips (§3.2).  It translates channel frames into DDR2 commands for local
requests and forwards frames for requests addressed past it.  The AMB is
also where the power model's traffic accounting happens: Fig. 3.2's four
traffic categories (local read/write, bypassed read/write) are tallied
here and consumed by Eq. 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params.dram_timing import FBDIMMChannelParams
from repro.units import ns_to_s


@dataclass
class AMBTraffic:
    """Byte counters for the four Fig. 3.2 traffic categories."""

    local_read_bytes: int = 0
    local_write_bytes: int = 0
    bypass_read_bytes: int = 0
    bypass_write_bytes: int = 0

    @property
    def local_bytes(self) -> int:
        """Local read + write bytes."""
        return self.local_read_bytes + self.local_write_bytes

    @property
    def bypass_bytes(self) -> int:
        """Bypassed read + write bytes."""
        return self.bypass_read_bytes + self.bypass_write_bytes


class AMB:
    """One Advanced Memory Buffer on the daisy chain.

    Args:
        position: chain position, 0 = nearest the memory controller.
        chain_length: number of DIMMs on the channel.
        params: channel parameters (hop and translation latencies).
    """

    def __init__(self, position: int, chain_length: int, params: FBDIMMChannelParams) -> None:
        self._position = position
        self._chain_length = chain_length
        self._params = params
        self.traffic = AMBTraffic()

    @property
    def position(self) -> int:
        """Daisy-chain position (0 = closest to the controller)."""
        return self._position

    def southbound_delay_s(self) -> float:
        """Time for a southbound frame to reach this AMB and be translated.

        The frame passes through ``position`` upstream AMBs, then this
        AMB decodes it and converts it to DDR2 format.
        """
        hops = self._position * ns_to_s(self._params.amb_hop_ns)
        return hops + ns_to_s(self._params.amb_translate_ns)

    def northbound_delay_s(self) -> float:
        """Time for read data from this DIMM to reach the controller.

        With variable read latency (VRL) enabled, the delay depends on the
        chain position; with VRL disabled every DIMM pays the worst-case
        (farthest-DIMM) delay so the controller sees a fixed latency (§3.2).
        """
        if self._params.variable_read_latency:
            hops = self._position
        else:
            hops = self._chain_length - 1
        return hops * ns_to_s(self._params.amb_hop_ns)

    def record_local(self, bytes_moved: int, is_write: bool) -> None:
        """Account traffic served by this DIMM's own DRAM chips."""
        if is_write:
            self.traffic.local_write_bytes += bytes_moved
        else:
            self.traffic.local_read_bytes += bytes_moved

    def record_bypass(self, bytes_moved: int, is_write: bool) -> None:
        """Account traffic forwarded past this AMB to a farther DIMM."""
        if is_write:
            self.traffic.bypass_write_bytes += bytes_moved
        else:
            self.traffic.bypass_read_bytes += bytes_moved

    def reset_traffic(self) -> None:
        """Zero the traffic counters (per measurement window)."""
        self.traffic = AMBTraffic()
