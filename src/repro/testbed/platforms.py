"""The two measured server platforms (§5.3.1).

Both machines carry two dual-core 3.0 GHz Xeon 5160 sockets (4 MB shared
L2 per socket), an Intel 5000X chipset and 667 MT/s FBDIMMs.  They
differ in memory population, enclosure and thermal environment:

- **PE1950** — Dell PowerEdge 1950, two 2 GB FBDIMMs, stand-alone in an
  air-conditioned room (26 degC), strong fans; an artificial AMB TDP of
  90 degC reveals thermal-limit behaviour (§5.3.1).
- **SR1500AL** — Intel SR1500AL in a hot box at 36 degC system ambient
  with four FBDIMMs and a conservative AMB TDP of 100 degC; one of its
  processors is aligned with the DIMMs, so CPU exhaust pre-heating is
  stronger (§5.4.3: cooling air heated ~10 degC by the processors).

The thermal resistances below are calibrated against the paper's
measured anchors: SR1500AL idles near 81 degC AMB, reaches 100 degC in
about 150 s under swim (Fig. 5.4); the PE1950 touches ~96 degC under
memory-intensive load (§5.4.1); the memory inlet averages ~47 degC on
the loaded SR1500AL (Fig. 5.9).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.codec import Count, Float, Instance, Text, check_domain, domain
from repro.params.emergency import EmergencyLevels, PE1950_LEVELS, SR1500AL_LEVELS
from repro.params.power_params import MeasuredProcessorPower, XEON_5160_POWER
from repro.params.thermal_params import AmbientModelParams, CoolingConfig, ThermalResistances


_SOME = Count(minimum=1)
_POSITIVE = Float(0.0, strict=True)


def _server_cooling(name: str, psi_amb: float) -> CoolingConfig:
    """Server DIMM cooling: strong directed airflow, full-DIMM spreader."""
    return CoolingConfig(
        name=name,
        heat_spreader="FDHS",
        air_velocity_m_per_s=2.0,
        resistances=ThermalResistances(
            psi_amb=psi_amb,
            psi_dram_amb=2.7,
            psi_dram=3.0,
            psi_amb_dram=3.5,
        ),
    )


@dataclass(frozen=True)
class ServerPlatform:
    """One measured server's full configuration."""

    name: str = domain(Text())
    #: System (front panel) ambient temperature, degC.
    system_ambient_c: float = domain(Float())
    #: FBDIMM channels in use and DIMMs per channel.
    channels: int = domain(_SOME)
    dimms_per_channel: int = domain(_SOME)
    #: Emergency table (Table 5.1 rows for this machine).
    levels: EmergencyLevels = domain(Instance(EmergencyLevels))
    #: DIMM cooling configuration.
    cooling: CoolingConfig = domain(Instance(CoolingConfig))
    #: CPU->memory preheat coefficient of Eq. 3.6 for this layout
    #: (stronger when a processor is aligned with the DIMMs, §5.4.3).
    cpu_mem_interaction: float = domain(Float(0.0))
    #: Constant inlet rise from CPU *idle* power (the sockets draw ~70 W
    #: even stalled, which already pre-heats the airflow), degC.
    cpu_idle_preheat_c: float = domain(Float(), 7.0)
    #: Per-socket shared L2 capacity, bytes (Xeon 5160: 4 MB, 16-way).
    l2_per_socket_bytes: int = domain(_SOME, 4 * 1024 * 1024)
    #: Sockets and cores per socket.
    sockets: int = domain(_SOME, 2)
    cores_per_socket: int = domain(_SOME, 2)
    #: Memory envelope: FSB-limited peak and loaded idle latency.
    peak_bandwidth_bytes_per_s: float = domain(_POSITIVE, 11.0e9)
    idle_latency_s: float = domain(_POSITIVE, 95e-9)
    #: Processor power model.
    cpu_power: MeasuredProcessorPower = domain(
        Instance(MeasuredProcessorPower), XEON_5160_POWER
    )
    #: DTM polling interval (§5.2.1: one second).
    dtm_interval_s: float = domain(_POSITIVE, 1.0)
    #: Default scheduler time slice (§5.3.1: 100 ms).
    time_slice_s: float = domain(_POSITIVE, 0.100)

    __post_init__ = check_domain

    @property
    def total_cores(self) -> int:
        """Total cores across sockets."""
        return self.sockets * self.cores_per_socket

    def ambient_params(self, ambient_override_c: float | None = None) -> AmbientModelParams:
        """Eq. 3.6 parameters for this machine.

        Args:
            ambient_override_c: replace the system ambient (the paper
                runs the SR1500AL at both 36 and 26 degC, §5.4.5).
        """
        ambient = (
            self.system_ambient_c if ambient_override_c is None else ambient_override_c
        )
        return AmbientModelParams(
            inlet_by_cooling={self.cooling.name: ambient + self.cpu_idle_preheat_c},
            interaction=self.cpu_mem_interaction,
        )

    def with_levels(self, levels: EmergencyLevels) -> "ServerPlatform":
        """A copy with a different emergency table (TDP sweeps, §5.4.5)."""
        return replace(self, levels=levels)


#: Dell PowerEdge 1950: 26 degC room, two DIMMs (one per channel),
#: artificial AMB TDP 90 degC, processors slightly misaligned with the
#: DIMMs (weaker preheat).
PE1950 = ServerPlatform(
    name="PE1950",
    system_ambient_c=26.0,
    channels=2,
    dimms_per_channel=1,
    levels=PE1950_LEVELS,
    cooling=_server_cooling("PE1950", psi_amb=6.3),
    cpu_mem_interaction=1.7,
)

#: Intel SR1500AL: hot box at 36 degC, four DIMMs (two per channel),
#: AMB TDP 100 degC, one processor aligned with the DIMMs (~10 degC
#: preheat at full load).
SR1500AL = ServerPlatform(
    name="SR1500AL",
    system_ambient_c=36.0,
    channels=2,
    dimms_per_channel=2,
    levels=SR1500AL_LEVELS,
    cooling=_server_cooling("SR1500AL", psi_amb=6.6),
    cpu_mem_interaction=2.0,
)

#: Canonical registry of the measured platforms, keyed by name.  The
#: CLI, the run specs, and the client API all resolve platform
#: names through this one mapping.
PLATFORMS: dict[str, ServerPlatform] = {
    platform.name: platform for platform in (PE1950, SR1500AL)
}
