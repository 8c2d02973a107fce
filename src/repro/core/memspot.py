"""MEMSpot: the second-level power/thermal simulator (§4.3.1).

MEMSpot consumes windowed memory throughput (from the level-1 model or
from measurement) and emulates the power and thermal behaviour of every
DIMM: Eq. 3.1/3.2 power from the local/bypass traffic split, Eqs. 3.3–3.5
DIMM temperatures, and the Eq. 3.6 ambient model.  The DTM policy reads
its temperatures and steers the processor; MEMSpot never decides anything
itself.

All channels carry identical interleaved traffic, so one representative
channel's DIMM chain is simulated and memory power is scaled by the
channel count.  Within the chain each position gets its own thermal
state — the nearest DIMM carries the most bypass traffic and runs
hottest, and the reported reading is the chain maximum (what a DTM
policy polling every sensor would act on).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.errors import CheckpointError, ConfigurationError, checkpoint_float
from repro.params.power_params import AMBPowerParams, DRAMPowerParams
from repro.params.thermal_params import AmbientModelParams, CoolingConfig
from repro.power.dimm_power import ChannelTraffic, channel_dimm_powers
from repro.thermal.integrated import AmbientModel
from repro.thermal.isolated import DimmThermalModel


class MemSpotSample(NamedTuple):
    """One MEMSpot step's outputs.

    A named tuple, not a dataclass: the batched kernel returns one per
    10 ms window, and the tuple builds at a fraction of the cost while
    keeping attribute access and ``==``.
    """

    #: Hottest AMB temperature across the chain, degC.
    amb_c: float
    #: Hottest DRAM temperature across the chain, degC.
    dram_c: float
    #: DRAM ambient (memory inlet) temperature, degC.
    ambient_c: float
    #: Total memory subsystem power (all channels), watts.
    memory_power_w: float


class MemSpot:
    """The level-2 power/thermal emulator.

    Args:
        cooling: heat spreader + air velocity (Table 3.2 column).
        ambient: ambient-model parameters (Table 3.3 row) — isolated or
            integrated.
        physical_channels: FBDIMM channels in the system.
        dimms_per_channel: DIMMs per channel chain.
        amb_params / dram_params: power-model constants.
    """

    def __init__(
        self,
        cooling: CoolingConfig,
        ambient: AmbientModelParams,
        physical_channels: int = 4,
        dimms_per_channel: int = 4,
        amb_params: AMBPowerParams | None = None,
        dram_params: DRAMPowerParams | None = None,
        warm_start: bool = True,
    ) -> None:
        if physical_channels < 1 or dimms_per_channel < 1:
            raise ConfigurationError("need at least one channel and one DIMM")
        self._cooling = cooling
        self._channels = physical_channels
        self._dimms_per_channel = dimms_per_channel
        self._amb_params = amb_params if amb_params is not None else AMBPowerParams()
        self._dram_params = dram_params if dram_params is not None else DRAMPowerParams()
        self._warm_start = warm_start
        self._ambient = AmbientModel(ambient, cooling.name)
        inlet = self._ambient.inlet_c
        self._dimm_models = [
            DimmThermalModel(cooling, inlet) for _ in range(dimms_per_channel)
        ]
        if warm_start:
            self._settle_idle()

    def _settle_idle(self) -> None:
        """Start every DIMM at its zero-traffic stable temperature.

        The paper's experiments begin after "the machine is idle for a
        sufficiently long time for the AMB temperature to stabilize"
        (§5.4.1) — the DIMMs idle well above the inlet temperature because
        AMB idle power alone is several watts.
        """
        from repro.thermal.isolated import stable_temperatures

        inlet = self._ambient.inlet_c
        idle_traffic = ChannelTraffic(0.0, 0.0)
        powers = channel_dimm_powers(
            idle_traffic, self._dimms_per_channel, self._amb_params, self._dram_params
        )
        for model, power in zip(self._dimm_models, powers):
            stable = stable_temperatures(inlet, power.amb_w, power.dram_w, self._cooling)
            model.reset_to(stable.amb_c, stable.dram_c)

    @property
    def cooling(self) -> CoolingConfig:
        """Cooling configuration."""
        return self._cooling

    @property
    def ambient_model(self) -> AmbientModel:
        """The ambient node (for tests)."""
        return self._ambient

    @property
    def dimm_models(self) -> list[DimmThermalModel]:
        """Per-chain-position thermal models (for tests / ablations)."""
        return self._dimm_models

    def sample(self) -> MemSpotSample:
        """Current temperatures with zero-power bookkeeping (no step)."""
        amb_c = max(m.temperatures.amb_c for m in self._dimm_models)
        dram_c = max(m.temperatures.dram_c for m in self._dimm_models)
        return MemSpotSample(
            amb_c=amb_c,
            dram_c=dram_c,
            ambient_c=self._ambient.ambient_c,
            memory_power_w=self.idle_power_w(),
        )

    def idle_power_w(self) -> float:
        """Memory power with zero throughput (static + AMB idle)."""
        traffic = ChannelTraffic(0.0, 0.0)
        powers = channel_dimm_powers(
            traffic, self._dimms_per_channel, self._amb_params, self._dram_params
        )
        total_w = 0.0
        for power in powers:
            total_w += power.total_w
        return self._channels * total_w

    def step(
        self,
        read_bytes_per_s: float,
        write_bytes_per_s: float,
        cpu_heating_sum: float,
        dt_s: float,
    ) -> MemSpotSample:
        """Advance the thermal state by one window.

        Args:
            read_bytes_per_s: system-wide read throughput.
            write_bytes_per_s: system-wide write throughput.
            cpu_heating_sum: sum over cores of V_i * reference_IPC_i for
                the Eq. 3.6 ambient model (ignored by the isolated model).
            dt_s: window length.

        Returns:
            The end-of-window :class:`MemSpotSample`.
        """
        ambient_c = self._ambient.step_heating(cpu_heating_sum, dt_s)
        traffic = ChannelTraffic(
            read_bytes_per_s / self._channels, write_bytes_per_s / self._channels
        )
        powers = channel_dimm_powers(
            traffic, self._dimms_per_channel, self._amb_params, self._dram_params
        )
        amb_c = -273.15
        dram_c = -273.15
        total_power = 0.0
        for model, power in zip(self._dimm_models, powers):
            temps = model.step(ambient_c, power.amb_w, power.dram_w, dt_s)
            amb_c = max(amb_c, temps.amb_c)
            dram_c = max(dram_c, temps.dram_c)
            total_power += power.total_w
        return MemSpotSample(
            amb_c=amb_c,
            dram_c=dram_c,
            ambient_c=ambient_c,
            memory_power_w=total_power * self._channels,
        )

    def reset(self) -> None:
        """Restart at the initial (idle-stable or inlet) temperatures."""
        self._ambient.reset()
        if self._warm_start:
            self._settle_idle()
        else:
            inlet = self._ambient.inlet_c
            for model in self._dimm_models:
                model.reset(inlet)

    # -- checkpoint support ------------------------------------------------

    def thermal_state(self) -> dict:
        """Serializable thermal state (the engine checkpoint payload).

        The shape is shared with :class:`~repro.core.kernel.BatchedMemSpot`
        — the two kernels are bit-identical, so a checkpoint taken under
        one restores into the other.
        """
        return {
            "t_ambient": self._ambient.node_temperature_c,
            "t_amb": [m.temperatures.amb_c for m in self._dimm_models],
            "t_dram": [m.temperatures.dram_c for m in self._dimm_models],
        }

    def load_thermal_state(self, state: dict) -> None:
        """Restore temperatures captured by :meth:`thermal_state`."""
        t_ambient, t_amb, t_dram = checked_thermal_state(
            state, len(self._dimm_models)
        )
        self._ambient.restore_node(t_ambient)
        for model, amb_c, dram_c in zip(self._dimm_models, t_amb, t_dram):
            model.reset_to(amb_c, dram_c)


def checked_thermal_state(
    state: Any, dimms: int
) -> tuple[float, list[float], list[float]]:
    """Validate a ``thermal_state()`` snapshot for a ``dimms``-long chain.

    Returns ``(t_ambient, t_amb, t_dram)`` as floats.  A missing key, a
    non-numeric or non-finite temperature, or a chain of the wrong
    length raises :class:`~repro.errors.CheckpointError` before any
    kernel state is touched.
    """
    if not isinstance(state, dict):
        raise CheckpointError(
            f"thermal state must be an object, got {type(state).__name__}"
        )
    missing = [k for k in ("t_ambient", "t_amb", "t_dram") if k not in state]
    if missing:
        raise CheckpointError(f"thermal state is missing {missing}")
    chains = []
    for name in ("t_amb", "t_dram"):
        chain = state[name]
        if not isinstance(chain, list) or len(chain) != dimms:
            raise CheckpointError(
                f"thermal state {name} must list {dimms} DIMM positions, "
                f"got {chain!r}"
            )
        chains.append([
            checkpoint_float(t, f"thermal state {name}[{i}]")
            for i, t in enumerate(chain)
        ])
    t_ambient = checkpoint_float(state["t_ambient"], "thermal state t_ambient")
    return t_ambient, chains[0], chains[1]
