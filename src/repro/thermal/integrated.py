"""Integrated DRAM ambient-temperature model (Eq. 3.6, §3.5).

In servers where the cooling airflow passes the processors before the
DIMMs, the memory inlet temperature rises with processor activity:

``TA_stable = T_inlet + Psi_CPU_MEM * sum_i(xi * V_core_i * IPC_core_i)``

The product ``xi * V * IPC`` estimates per-core power (voltage times a
current proxy).  IPC is defined against *reference* cycles — the cycle
time at the top frequency — so a DVFS-slowed core contributes less.  The
dynamic ambient follows the stable point with tau = 20 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ThermalModelError
from repro.params.thermal_params import AmbientModelParams
from repro.thermal.rc import RCNode


@dataclass(frozen=True)
class CoreActivity:
    """Per-core inputs of the ambient model for one interval."""

    #: Supply voltage of the core, volts.
    voltage_v: float
    #: Committed instructions divided by *reference* cycles (cycles at the
    #: maximum frequency), so frequency scaling lowers this value (§3.5).
    reference_ipc: float

    def __post_init__(self) -> None:
        if self.voltage_v < 0:
            raise ThermalModelError("core voltage must be non-negative")
        if self.reference_ipc < 0:
            raise ThermalModelError("reference IPC must be non-negative")


def stable_ambient_c(
    params: AmbientModelParams,
    cooling_name: str,
    activities: list[CoreActivity],
) -> float:
    """Stable DRAM ambient temperature for constant core activity (Eq. 3.6)."""
    inlet = params.inlet_for(cooling_name)
    heating = params.interaction * sum(
        a.voltage_v * a.reference_ipc for a in activities
    )
    return inlet + heating


class AmbientModel:
    """Dynamic DRAM ambient temperature driven by processor activity.

    With ``interaction == 0`` (Table 3.3, isolated row) the ambient is a
    constant equal to the system inlet temperature, reproducing the §3.4
    assumption exactly; with a positive interaction the ambient node chases
    the Eq. 3.6 stable point with a 20 s time constant.
    """

    def __init__(self, params: AmbientModelParams, cooling_name: str) -> None:
        self._params = params
        self._cooling_name = cooling_name
        inlet = params.inlet_for(cooling_name)
        self._node = RCNode(params.tau_ambient_s, inlet)

    @property
    def inlet_c(self) -> float:
        """System inlet temperature, degC."""
        return self._params.inlet_for(self._cooling_name)

    @property
    def ambient_c(self) -> float:
        """Current DRAM ambient (memory inlet) temperature, degC."""
        if self._params.interaction == 0.0:
            return self.inlet_c
        return self._node.temperature_c

    def step(self, activities: list[CoreActivity], dt_s: float) -> float:
        """Advance the ambient node by ``dt_s`` given core activity.

        Returns the ambient temperature at the end of the interval.
        """
        heating_sum = sum(a.voltage_v * a.reference_ipc for a in activities)
        return self.step_heating(heating_sum, dt_s)

    def step_heating(self, heating_sum: float, dt_s: float) -> float:
        """Fast-path step taking the precomputed sum of V_i * IPC_i.

        The inner simulation loop calls this once per window; it avoids
        building :class:`CoreActivity` objects.
        """
        stable = self.inlet_c + self._params.interaction * heating_sum
        self._node.step(stable, dt_s)
        return self.ambient_c

    def reset(self) -> None:
        """Restart the ambient at the system inlet temperature."""
        self._node.reset(self.inlet_c)

    @property
    def node_temperature_c(self) -> float:
        """The raw ambient-node temperature (checkpoint state; unlike
        :attr:`ambient_c` it is meaningful even at interaction 0)."""
        return self._node.temperature_c

    def restore_node(self, temperature_c: float) -> None:
        """Force the ambient node to a checkpointed temperature."""
        self._node.reset(float(temperature_c))
