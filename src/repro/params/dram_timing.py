"""DDR2 / FBDIMM timing and simulated-system parameters (Table 4.1).

The paper simulates a four-core processor attached to a multi-channel
FBDIMM memory using 667 MT/s DDR2 devices with (5-5-5) timing.  The
dataclasses below carry those parameters into both the cycle-level DRAM
simulator (:mod:`repro.dram`) and the analytic window model
(:mod:`repro.core.windowmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.codec import Count, Flag, Float, Instance, check_domain, domain
from repro.errors import ConfigurationError

#: A latency, in nanoseconds: finite and never negative.
_NS = Float(0.0)
#: A count of things the platform has at least one of.
_SOME = Count(minimum=1)


@dataclass(frozen=True)
class DDR2Timing:
    """DDR2 device timing constraints, in nanoseconds (Table 4.1).

    The default values are the (5-5-5) DDR2-667 parameters used in the
    paper: tRCD = tCL = tRP = 15 ns at a 3 ns bus-clock period.
    """

    #: Activate to read/write delay (RAS-to-CAS).
    trcd_ns: float = domain(_NS, 15.0)
    #: Read command to first data (CAS latency).
    tcl_ns: float = domain(_NS, 15.0)
    #: Precharge to activate delay.
    trp_ns: float = domain(_NS, 15.0)
    #: Activate to precharge minimum (row active time).
    tras_ns: float = domain(_NS, 39.0)
    #: Activate to activate on the same bank (row cycle).
    trc_ns: float = domain(_NS, 54.0)
    #: Write-to-read turnaround.
    twtr_ns: float = domain(_NS, 9.0)
    #: Write latency (command to first write data).
    twl_ns: float = domain(_NS, 12.0)
    #: Write to precharge delay.
    twpd_ns: float = domain(_NS, 36.0)
    #: Read to precharge delay.
    trpd_ns: float = domain(_NS, 9.0)
    #: Activate to activate across banks (row-to-row delay).
    trrd_ns: float = domain(_NS, 9.0)
    #: Data transfer rate in mega-transfers per second.
    transfer_rate_mt: float = domain(Float(0.0, strict=True), 667.0)
    #: Burst length in transfers; 4 transfers of 8 bytes moves 32 bytes
    #: per DDR2 x8 rank access, so a 64 B line spans two channels (§3.3).
    burst_length: int = domain(_SOME, 4)

    def __post_init__(self) -> None:
        check_domain(self)
        if not self.trc_ns >= self.tras_ns:
            raise ConfigurationError(
                f"tRC ({self.trc_ns} ns) must be >= tRAS ({self.tras_ns} ns)"
            )

    @property
    def clock_period_ns(self) -> float:
        """Bus clock period in nanoseconds (DDR: two transfers/clock)."""
        return 2000.0 / self.transfer_rate_mt

    @property
    def burst_duration_ns(self) -> float:
        """Time for one burst on the DDR2 data bus."""
        return self.burst_length * self.clock_period_ns / 2.0


@dataclass(frozen=True)
class FBDIMMChannelParams:
    """FBDIMM channel interconnect parameters (§3.2 and Table 4.1).

    During each memory (bus) cycle the southbound link carries three
    commands or one command plus 16 B of write data; the northbound link
    carries 32 B of read data.  The daisy-chained AMBs add a fixed pass-
    through latency per hop, which is what produces the variable read
    latency (VRL) feature.
    """

    #: Commands per southbound frame when no write data is carried.
    southbound_commands_per_frame: int = domain(_SOME, 3)
    #: Write-data payload bytes per southbound frame (1 command + 16 B).
    southbound_write_bytes: int = domain(_SOME, 16)
    #: Read-data payload bytes per northbound frame.
    northbound_read_bytes: int = domain(_SOME, 32)
    #: AMB pass-through latency per hop, nanoseconds (each direction).
    amb_hop_ns: float = domain(_NS, 3.0)
    #: AMB local translation latency (FBDIMM frame -> DDR2 command), ns.
    amb_translate_ns: float = domain(_NS, 5.0)
    #: Memory controller fixed overhead per request, ns (Table 4.1: 12 ns).
    controller_overhead_ns: float = domain(_NS, 12.0)
    #: Memory controller request buffer entries (Table 4.1).
    controller_queue_entries: int = domain(_SOME, 64)
    #: Whether variable read latency is enabled (§3.2).
    variable_read_latency: bool = domain(Flag(), True)

    __post_init__ = check_domain

    def frame_period_ns(self, timing: DDR2Timing) -> float:
        """FBDIMM frame period, in nanoseconds.

        One frame spans two DDR2 bus clocks, so a 32 B northbound frame
        stream exactly matches the peak bandwidth of one DDR2 channel
        (§3.2: "the maximum bandwidth of the northbound link matches that
        of one DDR2 channel"): 32 B / 6 ns = 5.33 GB/s at 667 MT/s.
        """
        return 2.0 * timing.clock_period_ns


@dataclass(frozen=True)
class SimulatedSystemParams:
    """Whole-system parameters of the simulated platform (Table 4.1)."""

    #: Number of processor cores.
    cores: int = domain(_SOME, 4)
    #: Issue width per core.
    issue_width: int = domain(_SOME, 4)
    #: Pipeline depth (stages).
    pipeline_stages: int = domain(_SOME, 21)
    #: Nominal (maximum) core clock in Hz.
    max_frequency_hz: float = domain(Float(0.0, strict=True), 3.2e9)
    #: Shared L2 capacity in bytes (4 MB).
    l2_capacity_bytes: int = domain(_SOME, 4 * 1024 * 1024)
    #: L2 associativity.
    l2_ways: int = domain(_SOME, 8)
    #: Cache line size in bytes.
    line_bytes: int = domain(_SOME, 64)
    #: Logical FBDIMM channels (each logical channel = 2 physical, §3.3:
    #: a 64 B line is transferred over two FBDIMM channels).
    logical_channels: int = domain(_SOME, 2)
    #: Physical FBDIMM channels.
    physical_channels: int = domain(_SOME, 4)
    #: DIMMs per physical channel.
    dimms_per_channel: int = domain(_SOME, 4)
    #: DRAM banks per DIMM.
    banks_per_dimm: int = domain(_SOME, 8)
    #: DTM control interval in seconds (Table 4.1: 10 ms).
    dtm_interval_s: float = domain(Float(0.0, strict=True), 0.010)
    #: DTM control overhead per interval in seconds (Table 4.1: 25 us).
    dtm_overhead_s: float = domain(Float(0.0), 25e-6)
    #: DDR2 device timing.
    timing: DDR2Timing = domain(Instance(DDR2Timing), DDR2Timing)
    #: FBDIMM channel parameters.
    channel: FBDIMMChannelParams = domain(
        Instance(FBDIMMChannelParams), FBDIMMChannelParams
    )

    def __post_init__(self) -> None:
        check_domain(self)
        if self.physical_channels % self.logical_channels != 0:
            raise ConfigurationError(
                "physical channels must be a multiple of logical channels"
            )
