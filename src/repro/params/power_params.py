"""FBDIMM and processor power-model parameters (Eq. 3.1, Table 3.1, Table 4.4).

Three parameter families live here:

- :class:`DRAMPowerParams` — the Micron-calculator-derived constants of the
  simple DRAM power model, Eq. 3.1.
- :class:`AMBPowerParams` — the Intel-specification-derived constants of
  the AMB power model, Eq. 3.2 / Table 3.1.
- :class:`ProcessorPowerTable` — the per-DTM-state processor power numbers
  of Table 4.4 (simulated 4-core Xeon-class chip) and the measured-system
  Xeon 5160 power model used in Chapter 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.codec import Count, Float, Instance, ListOf, check_domain, domain
from repro.errors import ConfigurationError

#: A power, coefficient or operating-point value: finite, never negative.
_AMOUNT = Float(0.0)


@dataclass(frozen=True)
class DRAMPowerParams:
    """Constants of the DRAM chip power model, Eq. 3.1.

    ``P_DRAM = static + alpha1 * read_throughput + alpha2 * write_throughput``
    with throughput in GB/s and power in watts, per DIMM.  The static term
    (0.98 W) assumes no low-power modes and 20% all-banks-precharged time,
    and folds in refresh power (§3.3).
    """

    #: Static power per DIMM, watts.
    static_w: float = domain(_AMOUNT, 0.98)
    #: Read throughput coefficient, watts per GB/s.
    alpha1_w_per_gbps: float = domain(_AMOUNT, 1.12)
    #: Write throughput coefficient, watts per GB/s.
    alpha2_w_per_gbps: float = domain(_AMOUNT, 1.16)

    __post_init__ = check_domain


@dataclass(frozen=True)
class AMBPowerParams:
    """Constants of the AMB power model, Eq. 3.2 / Table 3.1.

    ``P_AMB = idle + beta * bypass_throughput + gamma * local_throughput``
    with throughput in GB/s and power in watts.  The last AMB on a channel
    idles at 4.0 W; every other AMB idles at 5.1 W because it must stay in
    synchronization with neighbors on both sides (§3.3).
    """

    #: Idle power of the last AMB on the daisy chain, watts.
    idle_last_dimm_w: float = domain(_AMOUNT, 4.0)
    #: Idle power of every other AMB, watts.
    idle_other_dimm_w: float = domain(_AMOUNT, 5.1)
    #: Bypass-traffic coefficient, watts per GB/s.
    beta_w_per_gbps: float = domain(_AMOUNT, 0.19)
    #: Local-traffic coefficient, watts per GB/s.
    gamma_w_per_gbps: float = domain(_AMOUNT, 0.75)

    def __post_init__(self) -> None:
        check_domain(self)
        if not self.gamma_w_per_gbps >= self.beta_w_per_gbps:
            raise ConfigurationError(
                "a local request must cost at least as much as a bypassed one (§3.3)"
            )

    def idle_power_w(self, is_last_dimm: bool) -> float:
        """Idle power of one AMB depending on its daisy-chain position."""
        return self.idle_last_dimm_w if is_last_dimm else self.idle_other_dimm_w


@dataclass(frozen=True)
class DVFSOperatingPoint:
    """One processor DVFS operating point (frequency + supply voltage)."""

    frequency_hz: float = domain(_AMOUNT)
    voltage_v: float = domain(_AMOUNT)

    __post_init__ = check_domain


#: A DVFS ladder: at least one operating point, highest first.
_LADDER = ListOf(Instance(DVFSOperatingPoint), nonempty=True)


@dataclass(frozen=True)
class ProcessorPowerTable:
    """Processor power consumption per DTM running state (Table 4.4).

    The simulated processor is a four-core chip whose per-core peak power
    is 65 W and whose per-core standby power is 15.5 W (one third of the
    30 A maximum HALT current at 1.55 V, §4.4.3).  Table 4.4 tabulates:

    - DTM-TS / DTM-BW: 62 W with memory off (all cores stalled/standby),
      260 W otherwise;
    - DTM-ACG: 62 + 49.5 * active_cores watts;
    - DTM-CDVFS: per operating point — 62, 80.6, 116.5, 193.4, 260 W.
    """

    cores: int = domain(Count(minimum=1), 4)
    #: Peak power per active core at the top operating point, watts.
    core_peak_w: float = domain(_AMOUNT, 65.0)
    #: Standby (clock-gated / halted) power per core, watts.
    core_standby_w: float = domain(_AMOUNT, 15.5)
    #: DVFS ladder, highest first (Table 4.1 / Table 4.4).
    operating_points: tuple[DVFSOperatingPoint, ...] = domain(
        _LADDER,
        (
            DVFSOperatingPoint(3.2e9, 1.55),
            DVFSOperatingPoint(2.8e9, 1.35),
            DVFSOperatingPoint(1.6e9, 1.15),
            DVFSOperatingPoint(0.8e9, 0.95),
        ),
    )
    #: Power at each DVFS point with all cores active (Table 4.4),
    #: highest-frequency first; the all-stopped state draws standby power.
    cdvfs_power_w: tuple[float, ...] = domain(
        ListOf(_AMOUNT, length=lambda table: len(table.operating_points)),
        (260.0, 193.4, 116.5, 80.6),
    )

    __post_init__ = check_domain

    @property
    def standby_w(self) -> float:
        """Chip power with every core halted (Table 4.4 row '0 cores')."""
        return self.cores * self.core_standby_w

    def acg_power_w(self, active_cores: int) -> float:
        """Chip power with ``active_cores`` running at full speed.

        Table 4.4: 62, 111.5, 161, 210.5 and 260 W for 0..4 active cores,
        i.e. standby plus (peak - standby) per active core.
        """
        if not 0 <= active_cores <= self.cores:
            raise ConfigurationError(
                f"active_cores must be within [0, {self.cores}], got {active_cores}"
            )
        increment = self.core_peak_w - self.core_standby_w
        return self.standby_w + increment * active_cores

    def cdvfs_power_at_level(self, level: int) -> float:
        """Chip power at DVFS ladder position ``level`` (0 = fastest).

        A level equal to ``len(operating_points)`` means fully stopped.
        """
        if level == len(self.operating_points):
            return self.standby_w
        if not 0 <= level < len(self.operating_points):
            raise ConfigurationError(f"invalid DVFS level {level}")
        return self.cdvfs_power_w[level]


#: Table 4.4 instantiation for the simulated platform of Chapter 4.
SIMULATED_CPU_POWER = ProcessorPowerTable()


@dataclass(frozen=True)
class MeasuredProcessorPower:
    """Activity-based power model for the Xeon 5160 servers of Chapter 5.

    The measured machines carry two dual-core Xeon 5160 sockets.  Modern
    cores clock-gate stalled functional blocks, so chip power follows core
    *activity* (retired-uop throughput) rather than merely the enabled-core
    count — which is exactly why DTM-ACG saves little CPU power on real
    systems (§5.4.4) while DTM-CDVFS saves ~15.5% through voltage scaling.

    ``P = idle + sum_cores(active_w * utilization * (V/Vmax)^2 * (f/fmax))``
    """

    sockets: int = domain(Count(minimum=1), 2)
    cores_per_socket: int = domain(Count(minimum=1), 2)
    #: Idle power of both sockets combined (uncore + leakage), watts.
    idle_w: float = domain(_AMOUNT, 55.0)
    #: Maximum dynamic power per core at top frequency/voltage, watts.
    core_active_w: float = domain(_AMOUNT, 30.0)
    #: Activity floor of an online core: even fully stalled on memory, a
    #: running core spins its front end and caches.  This is why DTM-BW
    #: saves almost no CPU power despite throttling memory (§5.4.4).
    min_activity: float = domain(Float(0.0, 1.0), 0.35)
    #: DVFS ladder of the Xeon 5160 (§5.2.1), highest first.
    operating_points: tuple[DVFSOperatingPoint, ...] = domain(
        _LADDER,
        (
            DVFSOperatingPoint(3.000e9, 1.2125),
            DVFSOperatingPoint(2.667e9, 1.1625),
            DVFSOperatingPoint(2.333e9, 1.1000),
            DVFSOperatingPoint(2.000e9, 1.0375),
        ),
    )

    __post_init__ = check_domain

    @property
    def total_cores(self) -> int:
        """Total core count across sockets."""
        return self.sockets * self.cores_per_socket

    def power_w(self, utilizations: list[float], level: int) -> float:
        """Chip power given per-ONLINE-core utilizations and a DVFS level.

        Each entry of ``utilizations`` is one online core; gated/offline
        cores are omitted by the caller.  Online cores draw at least the
        ``min_activity`` floor.
        """
        if not 0 <= level < len(self.operating_points):
            raise ConfigurationError(f"invalid DVFS level {level}")
        point = self.operating_points[level]
        top = self.operating_points[0]
        voltage_scale = (point.voltage_v / top.voltage_v) ** 2
        frequency_scale = point.frequency_hz / top.frequency_hz
        dynamic = sum(
            self.core_active_w * min(max(u, self.min_activity), 1.0)
            for u in utilizations
        )
        return self.idle_w + dynamic * voltage_scale * frequency_scale


#: Chapter 5 measured-platform processor power model.
XEON_5160_POWER = MeasuredProcessorPower()
