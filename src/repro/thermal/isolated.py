"""Isolated thermal model of one FBDIMM (Eqs. 3.3–3.5).

Stable temperatures under constant power (Intel-study-derived, §3.4):

``T_AMB  = T_A + P_AMB * Psi_AMB      + P_DRAM * Psi_DRAM_AMB``
``T_DRAM = T_A + P_AMB * Psi_AMB_DRAM + P_DRAM * Psi_DRAM``

The dynamic temperatures approach these stable points with the RC time
constants tau_AMB = 50 s and tau_DRAM = 100 s (Table 3.2).  DIMMs do not
interact with each other (cooling air flows between them, §3.4); only the
AMB and the DRAM chips of the *same* DIMM couple through the raw card.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params.thermal_params import CoolingConfig
from repro.thermal.rc import RCNode


@dataclass(frozen=True)
class DimmTemperatures:
    """AMB and DRAM temperatures of one DIMM at one instant, degC."""

    amb_c: float
    dram_c: float


def stable_temperatures(
    ambient_c: float,
    amb_power_w: float,
    dram_power_w: float,
    cooling: CoolingConfig,
) -> DimmTemperatures:
    """Stable AMB/DRAM temperatures for constant power (Eqs. 3.3–3.4).

    Args:
        ambient_c: DIMM ambient (inlet) temperature T_A, degC.
        amb_power_w: AMB power, watts.
        dram_power_w: power of the DRAM chips adjacent to the AMB, watts.
        cooling: heat spreader + air velocity column of Table 3.2.

    Returns:
        The asymptotic temperatures the DIMM would reach.
    """
    r = cooling.resistances
    amb_c = ambient_c + amb_power_w * r.psi_amb + dram_power_w * r.psi_dram_amb
    dram_c = ambient_c + amb_power_w * r.psi_amb_dram + dram_power_w * r.psi_dram
    return DimmTemperatures(amb_c=amb_c, dram_c=dram_c)


class DimmThermalModel:
    """Dynamic thermal state of one DIMM (isolated model, §3.4).

    Each :meth:`step` call takes the DIMM's current power draw, computes
    the stable temperatures for that power (Eqs. 3.3–3.4) and advances the
    AMB/DRAM RC nodes by the time step (Eq. 3.5).  The ambient temperature
    is passed per step, which lets the integrated model of §3.5 reuse this
    class unchanged by feeding it a time-varying ambient.
    """

    def __init__(self, cooling: CoolingConfig, initial_ambient_c: float) -> None:
        self._cooling = cooling
        self._amb_node = RCNode(cooling.tau_amb_s, initial_ambient_c)
        self._dram_node = RCNode(cooling.tau_dram_s, initial_ambient_c)

    @property
    def cooling(self) -> CoolingConfig:
        """The cooling configuration this DIMM is modeled under."""
        return self._cooling

    @property
    def temperatures(self) -> DimmTemperatures:
        """Current AMB and DRAM temperatures."""
        return DimmTemperatures(
            amb_c=self._amb_node.temperature_c,
            dram_c=self._dram_node.temperature_c,
        )

    def step(
        self,
        ambient_c: float,
        amb_power_w: float,
        dram_power_w: float,
        dt_s: float,
    ) -> DimmTemperatures:
        """Advance the DIMM temperatures by ``dt_s`` seconds.

        Args:
            ambient_c: current DIMM inlet temperature, degC.
            amb_power_w: AMB power over the interval, watts.
            dram_power_w: DRAM power over the interval, watts.
            dt_s: interval length, seconds.

        Returns:
            Temperatures at the end of the interval.
        """
        stable = stable_temperatures(ambient_c, amb_power_w, dram_power_w, self._cooling)
        self._amb_node.step(stable.amb_c, dt_s)
        self._dram_node.step(stable.dram_c, dt_s)
        return self.temperatures

    def reset_to(self, amb_c: float, dram_c: float) -> None:
        """Force specific AMB/DRAM temperatures (e.g. idle-stable start)."""
        self._amb_node.reset(amb_c)
        self._dram_node.reset(dram_c)
