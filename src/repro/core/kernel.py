"""The simulators' per-window thermal kernel (MEMSpot, flattened).

:class:`repro.core.memspot.MemSpot` is the readable paper-equation
model: per 10 ms window it builds a :class:`ChannelTraffic`, one
:class:`DimmPower` and one :class:`DimmTemperatures` per DIMM, and
dispatches two :class:`~repro.thermal.rc.RCNode` method calls per DIMM.
It stays as the tests' oracle; every simulator steps
:class:`BatchedMemSpot`.

:class:`BatchedMemSpot` precomputes everything that is constant for a
fixed configuration and time step — per-position AMB idle powers, bypass
hop counts, the Table 3.2 resistances, and the three RC gains
``1 - exp(-dt/tau)`` — keeps the chain's AMB/DRAM temperatures in flat
lists, and splits a window in two:

- :meth:`BatchedMemSpot.load` is the input-only half: the channel
  split, Eq. 3.2 power per chain position, the Eq. 3.3/3.4 stable-point
  products and the Eq. 3.6 stable ambient, as a :class:`ThermalLoad`.
  A window whose throughput and heating repeat (every hit of a
  strategy's window cache) reuses the load it built once.
- :meth:`BatchedMemSpot.step` is the state half: the Eq. 3.6 ambient
  node, the Eq. 3.5 RC update of each AMB and DRAM, and the chain
  peaks, returned as a :class:`MemSpotSample`.

Numerical contract: every expression below reproduces ``MemSpot``'s
floating-point operations *in the same order* — the stable points are
still summed ``ambient + AMB rise + DRAM rise`` left to right, nothing
folded across the ambient, which moves under the integrated model — so
``step(load(r, w, h), dt)`` and ``MemSpot.step(r, w, h, dt)`` are
bit-identical, not merely close.  The golden-master suite and the
property tests in ``tests/test_property_invariants.py`` enforce this.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.engine.codec import Field, Float, ListOf
from repro.errors import ConfigurationError, ThermalModelError
from repro.params.power_params import AMBPowerParams, DRAMPowerParams
from repro.params.thermal_params import AmbientModelParams, CoolingConfig
from repro.units import GB


class MemSpotSample(NamedTuple):
    """One MEMSpot step's outputs.

    A named tuple, not a dataclass: the kernel returns one per 10 ms
    window, and the tuple builds at a fraction of the cost while keeping
    attribute access and ``==``.  The scalar ``MemSpot`` oracle returns
    the same type.
    """

    #: Hottest AMB temperature across the chain, degC.
    amb_c: float
    #: Hottest DRAM temperature across the chain, degC.
    dram_c: float
    #: DRAM ambient (memory inlet) temperature, degC.
    ambient_c: float
    #: Total memory subsystem power (all channels), watts.
    memory_power_w: float


class ThermalLoad(NamedTuple):
    """The input-only half of one MEMSpot window.

    Everything a window's thermal step needs that depends only on its
    throughput and CPU heating, not on the thermal state: Eq. 3.2 power
    per chain position folded into the Eq. 3.3/3.4 stable-point terms,
    and the Eq. 3.6 stable ambient.  Built by
    :meth:`BatchedMemSpot.load`; a window-cache entry keeps one and
    every hit steps it again.
    """

    #: Eq. 3.6 stable ambient, ``inlet + interaction * heating``, degC.
    stable_ambient_c: float
    #: Per chain position, AMB power times psi_amb (Eq. 3.3), degC.
    amb_rise: tuple[float, ...]
    #: Per chain position, AMB power times psi_amb_dram (Eq. 3.4), degC.
    amb_dram_rise: tuple[float, ...]
    #: DRAM power times psi_dram_amb (Eq. 3.3), degC.
    dram_amb_rise: float
    #: DRAM power times psi_dram (Eq. 3.4), degC.
    dram_rise: float
    #: Total memory subsystem power (all channels), watts.
    memory_power_w: float


class BatchedMemSpot:
    """The flat-state counterpart of :class:`~repro.core.memspot.MemSpot`.

    Same constructor, same :meth:`sample`/:meth:`reset`, same numbers;
    a window is :meth:`load` then :meth:`step` (see the module doc), and
    the state lives in flat per-position lists instead of one object
    tree per DIMM.  Those lists are the engine checkpoint's thermal
    section (``STATE_FIELDS``).
    """

    def __init__(
        self,
        cooling: CoolingConfig,
        ambient: AmbientModelParams,
        physical_channels: int = 4,
        dimms_per_channel: int = 4,
    ) -> None:
        if physical_channels < 1 or dimms_per_channel < 1:
            raise ConfigurationError("need at least one channel and one DIMM")
        self._cooling = cooling
        self._channels = physical_channels
        self._dimms = dimms_per_channel
        p = AMBPowerParams()
        d = DRAMPowerParams()

        # Power-model constants, flattened per chain position.
        n = dimms_per_channel
        self._idle_w = [p.idle_power_w(i == n - 1) for i in range(n)]
        #: Integer bypass hop counts (n - 1 - i); kept as ints so the
        #: per-window bypass expression ``total * hops / n`` matches the
        #: scalar path's operation order exactly.
        self._hops = [n - 1 - i for i in range(n)]
        self._beta = p.beta_w_per_gbps
        self._gamma = p.gamma_w_per_gbps
        self._dram_static = d.static_w
        self._alpha1 = d.alpha1_w_per_gbps
        self._alpha2 = d.alpha2_w_per_gbps

        # Thermal constants (Table 3.2 column + Eq. 3.6 scalars).
        r = cooling.resistances
        self._psi_amb = r.psi_amb
        self._psi_dram_amb = r.psi_dram_amb
        self._psi_dram = r.psi_dram
        self._psi_amb_dram = r.psi_amb_dram
        self._tau_amb = cooling.tau_amb_s
        self._tau_dram = cooling.tau_dram_s
        self._inlet = ambient.inlet_for(cooling.name)
        self._interaction = ambient.interaction
        self._tau_ambient = ambient.tau_ambient_s

        # RC gains are recomputed only when dt changes (it never does
        # inside one run: the DTM interval is fixed).
        self._gain_dt = -1.0
        self._gain_ambient = 0.0
        self._gain_amb = 0.0
        self._gain_dram = 0.0

        # Flat thermal state.
        self._t_ambient = self._inlet
        self._t_amb = [self._inlet] * n
        self._t_dram = [self._inlet] * n
        self._settle_idle()

    # -- configuration accessors -------------------------------------------

    @property
    def cooling(self) -> CoolingConfig:
        """Cooling configuration."""
        return self._cooling

    # -- lifecycle ---------------------------------------------------------

    def _settle_idle(self) -> None:
        """Start every DIMM at its zero-traffic stable temperature.

        At zero traffic the AMB power is exactly the idle power and the
        DRAM power exactly the static term, so the stable points reduce
        to the same Eq. 3.3/3.4 affine forms the scalar path evaluates.
        """
        inlet = self._inlet
        for i in range(self._dimms):
            amb_w = self._idle_w[i]
            dram_w = self._dram_static
            self._t_amb[i] = inlet + amb_w * self._psi_amb + dram_w * self._psi_dram_amb
            self._t_dram[i] = inlet + amb_w * self._psi_amb_dram + dram_w * self._psi_dram

    def reset(self) -> None:
        """Restart at the idle-stable temperatures."""
        self._t_ambient = self._inlet
        self._settle_idle()

    # -- checkpoint support ------------------------------------------------

    STATE_FIELDS = (
        Field("t_ambient", "_t_ambient", Float()),
        Field("t_amb", "_t_amb", ListOf(Float(), lambda kernel: kernel._dimms)),
        Field("t_dram", "_t_dram", ListOf(Float(), lambda kernel: kernel._dimms)),
    )

    def _state_hook(self, values: dict, path: str) -> dict:
        # Invalidate the RC gain cache so the first step after a
        # restore recomputes the same ``1 - exp(-dt/tau)`` gains a
        # fresh kernel would: restored trajectories stay bit-identical.
        values["_gain_dt"] = -1.0
        return values

    # -- sampling ----------------------------------------------------------

    def _ambient_c(self) -> float:
        if self._interaction == 0.0:
            return self._inlet
        return self._t_ambient

    def idle_power_w(self) -> float:
        """Memory power with zero throughput (static + AMB idle)."""
        total = 0.0
        for i in range(self._dimms):
            total += self._idle_w[i] + self._dram_static
        return self._channels * total

    def sample(self) -> MemSpotSample:
        """Current temperatures with zero-power bookkeeping (no step)."""
        return MemSpotSample(
            amb_c=max(self._t_amb),
            dram_c=max(self._t_dram),
            ambient_c=self._ambient_c(),
            memory_power_w=self.idle_power_w(),
        )

    # -- one window: load, then step -----------------------------------------

    def _set_dt(self, dt_s: float) -> None:
        if dt_s < 0:
            raise ThermalModelError(f"time step must be non-negative, got {dt_s}")
        self._gain_dt = dt_s
        self._gain_ambient = 1.0 - math.exp(-dt_s / self._tau_ambient)
        self._gain_amb = 1.0 - math.exp(-dt_s / self._tau_amb)
        self._gain_dram = 1.0 - math.exp(-dt_s / self._tau_dram)

    def load(
        self,
        read_bytes_per_s: float,
        write_bytes_per_s: float,
        cpu_heating_sum: float,
    ) -> ThermalLoad:
        """The input-only half of one window (see :class:`ThermalLoad`).

        Args:
            read_bytes_per_s: system-wide read throughput.
            write_bytes_per_s: system-wide write throughput.
            cpu_heating_sum: Eq. 3.6 sum over cores of V_i * IPC_i.

        A negative or non-finite throughput or a non-finite heating sum
        raises :class:`~repro.errors.ConfigurationError`: a NaN would
        otherwise poison the chain for the rest of the run.
        """
        if not (
            0.0 <= read_bytes_per_s < math.inf
            and 0.0 <= write_bytes_per_s < math.inf
        ):
            raise ConfigurationError(
                "channel throughput must be finite and non-negative, got "
                f"read={read_bytes_per_s!r}, write={write_bytes_per_s!r}"
            )
        if not math.isfinite(cpu_heating_sum):
            raise ConfigurationError(
                f"CPU heating sum must be finite, got {cpu_heating_sum!r}"
            )
        # Per-channel traffic split (all channels interleave identically).
        channels = self._channels
        read_ch = read_bytes_per_s / channels
        write_ch = write_bytes_per_s / channels
        total = read_ch + write_ch
        n = self._dimms
        local_w = self._gamma * ((total / n) / GB)
        dram_w = (
            self._dram_static
            + self._alpha1 * ((read_ch / n) / GB)
            + self._alpha2 * ((write_ch / n) / GB)
        )
        amb_rise = []
        amb_dram_rise = []
        total_power = 0.0
        for idle_w, hops in zip(self._idle_w, self._hops):
            amb_w = idle_w + self._beta * ((total * hops / n) / GB) + local_w
            amb_rise.append(amb_w * self._psi_amb)
            amb_dram_rise.append(amb_w * self._psi_amb_dram)
            total_power += amb_w + dram_w
        return ThermalLoad(
            self._inlet + self._interaction * cpu_heating_sum,
            tuple(amb_rise),
            tuple(amb_dram_rise),
            dram_w * self._psi_dram_amb,
            dram_w * self._psi_dram,
            total_power * channels,
        )

    def step(self, load: ThermalLoad, dt_s: float) -> MemSpotSample:
        """Advance the thermal state by one window under ``load``.

        The state half of :meth:`MemSpot.step`: the Eq. 3.6 ambient
        node, the Eq. 3.5 RC update of every AMB and DRAM, and the
        chain peaks.  ``step(load(r, w, h), dt)`` equals
        ``MemSpot.step(r, w, h, dt)`` bit for bit.
        """
        if dt_s != self._gain_dt:
            self._set_dt(dt_s)
        stable_ambient, amb_rise, amb_dram_rise, dram_amb, dram_dram, power_w = load

        # Eq. 3.6 ambient node.
        self._t_ambient += (stable_ambient - self._t_ambient) * self._gain_ambient
        ambient_c = self._inlet if self._interaction == 0.0 else self._t_ambient

        gain_amb = self._gain_amb
        gain_dram = self._gain_dram
        # One flat pass over the chain: Eq. 3.3/3.4 stable points
        # (ambient + AMB rise + DRAM rise), Eq. 3.5 RC update, each peak
        # ``max`` as its compare.
        t_amb = self._t_amb
        t_dram = self._t_dram
        amb_c = -273.15
        dram_c = -273.15
        for i in range(self._dimms):
            ta = t_amb[i] + (ambient_c + amb_rise[i] + dram_amb - t_amb[i]) * gain_amb
            td = t_dram[i] + (
                ambient_c + amb_dram_rise[i] + dram_dram - t_dram[i]
            ) * gain_dram
            t_amb[i] = ta
            t_dram[i] = td
            amb_c = ta if ta > amb_c else amb_c
            dram_c = td if td > dram_c else dram_c
        return MemSpotSample(amb_c, dram_c, ambient_c, power_w)
