"""Thermal model parameters (Tables 3.2 and 3.3).

Table 3.2 gives the thermal resistances between the AMB, the DRAM chips
and ambient for each of six cooling configurations — two heat-spreader
types (AMB-Only Heat Spreader and Full-DIMM Heat Spreader) at three air
velocities — plus the RC time constants tau_AMB = 50 s and tau_DRAM =
100 s.  Table 3.3 gives the system inlet temperatures and the CPU-to-
memory thermal interaction coefficient of the integrated ambient model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.codec import Float, Instance, Object, Text, check_domain, domain
from repro.errors import ConfigurationError

#: A quantity the model divides by or scales with: finite and above zero.
_POSITIVE = Float(0.0, strict=True)


@dataclass(frozen=True)
class ThermalResistances:
    """Thermal resistances of one cooling configuration, in degC/W (Table 3.2)."""

    #: AMB to ambient.
    psi_amb: float = domain(_POSITIVE)
    #: DRAM-power contribution to AMB temperature (DRAM -> AMB coupling).
    psi_dram_amb: float = domain(_POSITIVE)
    #: DRAM chip to ambient.
    psi_dram: float = domain(_POSITIVE)
    #: AMB-power contribution to DRAM temperature (AMB -> DRAM coupling).
    psi_amb_dram: float = domain(_POSITIVE)

    __post_init__ = check_domain


@dataclass(frozen=True)
class CoolingConfig:
    """A named cooling configuration: heat spreader + air velocity (Table 3.2)."""

    name: str = domain(Text())
    #: Heat spreader type: "AOHS" (AMB only) or "FDHS" (full DIMM).
    heat_spreader: str = domain(Text(("AOHS", "FDHS")))
    #: Cooling air velocity in m/s.
    air_velocity_m_per_s: float = domain(_POSITIVE)
    resistances: ThermalResistances = domain(Instance(ThermalResistances))
    #: AMB thermal RC time constant, seconds (Table 3.2).
    tau_amb_s: float = domain(_POSITIVE, 50.0)
    #: DRAM thermal RC time constant, seconds (Table 3.2).
    tau_dram_s: float = domain(_POSITIVE, 100.0)

    __post_init__ = check_domain


#: AMB-Only Heat Spreader columns of Table 3.2.
AOHS_1_0 = CoolingConfig(
    name="AOHS_1.0",
    heat_spreader="AOHS",
    air_velocity_m_per_s=1.0,
    resistances=ThermalResistances(
        psi_amb=11.2, psi_dram_amb=4.3, psi_dram=4.9, psi_amb_dram=5.3
    ),
)
AOHS_1_5 = CoolingConfig(
    name="AOHS_1.5",
    heat_spreader="AOHS",
    air_velocity_m_per_s=1.5,
    resistances=ThermalResistances(
        psi_amb=9.3, psi_dram_amb=3.4, psi_dram=4.0, psi_amb_dram=4.1
    ),
)
AOHS_3_0 = CoolingConfig(
    name="AOHS_3.0",
    heat_spreader="AOHS",
    air_velocity_m_per_s=3.0,
    resistances=ThermalResistances(
        psi_amb=6.6, psi_dram_amb=2.2, psi_dram=2.7, psi_amb_dram=2.6
    ),
)

#: Full-DIMM Heat Spreader columns of Table 3.2.
FDHS_1_0 = CoolingConfig(
    name="FDHS_1.0",
    heat_spreader="FDHS",
    air_velocity_m_per_s=1.0,
    resistances=ThermalResistances(
        psi_amb=8.0, psi_dram_amb=4.4, psi_dram=4.0, psi_amb_dram=5.7
    ),
)
FDHS_1_5 = CoolingConfig(
    name="FDHS_1.5",
    heat_spreader="FDHS",
    air_velocity_m_per_s=1.5,
    resistances=ThermalResistances(
        psi_amb=7.0, psi_dram_amb=3.7, psi_dram=3.3, psi_amb_dram=4.5
    ),
)
FDHS_3_0 = CoolingConfig(
    name="FDHS_3.0",
    heat_spreader="FDHS",
    air_velocity_m_per_s=3.0,
    resistances=ThermalResistances(
        psi_amb=5.5, psi_dram_amb=2.9, psi_dram=2.3, psi_amb_dram=2.9
    ),
)

#: All six Table 3.2 columns, keyed by name.  The paper's experiments use
#: the two bold columns AOHS_1.5 and FDHS_1.0.
COOLING_CONFIGS: dict[str, CoolingConfig] = {
    config.name: config
    for config in (AOHS_1_0, AOHS_1_5, AOHS_3_0, FDHS_1_0, FDHS_1_5, FDHS_3_0)
}


@dataclass(frozen=True)
class AmbientModelParams:
    """DRAM ambient-temperature model parameters (Eq. 3.6, Table 3.3).

    ``TA_stable = T_inlet + interaction * sum_i(V_core_i * IPC_core_i)``
    where ``interaction`` is the product Psi_CPU_MEM * xi.  The isolated
    model sets the interaction to zero; the integrated model uses 1.5 and
    correspondingly lower inlet temperatures so both models represent the
    same thermally-constrained environment.
    """

    #: System inlet temperature per cooling configuration name, degC.
    inlet_by_cooling: dict[str, float] = domain(Object(Float()))
    #: Psi_CPU_MEM * xi, degC per (volt * IPC) summed over cores.
    interaction: float = domain(Float(0.0))
    #: RC time constant of the ambient node, seconds (§3.5: 20 s).
    tau_ambient_s: float = domain(_POSITIVE, 20.0)

    __post_init__ = check_domain

    def inlet_for(self, cooling_name: str) -> float:
        """System inlet temperature for a cooling configuration."""
        try:
            return self.inlet_by_cooling[cooling_name]
        except KeyError:
            raise ConfigurationError(
                f"no inlet temperature recorded for cooling {cooling_name!r}"
            ) from None

    def with_interaction(self, interaction: float) -> "AmbientModelParams":
        """A copy with a different CPU-memory interaction degree (§4.5.2)."""
        return replace(self, interaction=interaction)

    def with_inlet_delta(self, delta_c: float) -> "AmbientModelParams":
        """A copy with every inlet temperature shifted by ``delta_c``.

        Scenario knob: a hot machine room (positive delta) or an
        over-provisioned cold aisle (negative delta) shifts the whole
        Table 3.3 inlet row without touching the interaction model.
        """
        return replace(
            self,
            inlet_by_cooling={
                name: inlet + delta_c
                for name, inlet in self.inlet_by_cooling.items()
            },
        )


#: Table 3.3, isolated model row: constant ambient, no CPU interaction.
ISOLATED_AMBIENT = AmbientModelParams(
    inlet_by_cooling={"FDHS_1.0": 45.0, "AOHS_1.5": 50.0},
    interaction=0.0,
)

#: Table 3.3, integrated model row: pre-heated airflow, interaction 1.5.
INTEGRATED_AMBIENT = AmbientModelParams(
    inlet_by_cooling={"FDHS_1.0": 40.0, "AOHS_1.5": 45.0},
    interaction=1.5,
)
