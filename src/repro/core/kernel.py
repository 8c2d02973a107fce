"""Batched per-window thermal kernel (the MEMSpot hot path, flattened).

Profile of a batch run: the level-1 window model memoizes, so after the
first few hundred windows the simulators spend most of their time inside
:meth:`repro.core.memspot.MemSpot.step` — which, per 10 ms window, builds
a :class:`ChannelTraffic`, one :class:`DimmPower` per DIMM, one
:class:`DimmTemperatures` per DIMM, and dispatches two
:class:`~repro.thermal.rc.RCNode` method calls per DIMM, each re-checking
its cached gain.  None of that allocation changes between windows.

:class:`BatchedMemSpot` precomputes everything that is constant for a
fixed configuration and time step — per-position AMB idle powers, bypass
hop counts, the Table 3.2 resistances, and the three RC gains
``1 - exp(-dt/tau)`` — and keeps the chain's AMB/DRAM temperatures in
flat lists.  One :meth:`step` is then a single pass of scalar float
arithmetic: no dataclasses, no per-node dispatch, no repeated ``exp()``.
The default FBDIMM topology, four DIMMs per channel, gets that pass
unrolled over local variables inside :meth:`step` (selected by chain
length); every other length runs the loop.  The result is a
:class:`~repro.core.memspot.MemSpotSample` named tuple.

Numerical contract: every expression below reproduces the scalar path's
floating-point operations *in the same order*, so the batched and
per-node kernels are bit-identical, not merely close.  The golden-master
suite and the property tests in ``tests/test_property_invariants.py``
enforce this equivalence.
"""

from __future__ import annotations

import math

from repro.core.memspot import MemSpot, MemSpotSample, checked_thermal_state
from repro.errors import ConfigurationError, ThermalModelError
from repro.params.power_params import AMBPowerParams, DRAMPowerParams
from repro.params.thermal_params import AmbientModelParams, CoolingConfig
from repro.units import GB


def make_memspot(kernel: str = "batched", **kwargs) -> "MemSpot | BatchedMemSpot":
    """Build the level-2 thermal emulator for the requested kernel.

    ``batched`` is the flat-array fast path, ``scalar`` the per-node
    reference implementation; both yield bit-identical trajectories.
    """
    if kernel == "scalar":
        return MemSpot(**kwargs)
    if kernel == "batched":
        return BatchedMemSpot(**kwargs)
    raise ConfigurationError(
        f"kernel must be 'batched' or 'scalar', got {kernel!r}"
    )


class BatchedMemSpot:
    """Drop-in replacement for :class:`~repro.core.memspot.MemSpot`.

    Same constructor, same :meth:`sample`/:meth:`step`/:meth:`reset`
    interface, same numbers — the state just lives in flat per-position
    lists instead of one object tree per DIMM.
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
        self._dimms = dimms_per_channel
        self._warm_start = warm_start
        p = amb_params if amb_params is not None else AMBPowerParams()
        d = dram_params if dram_params is not None else DRAMPowerParams()

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
        if warm_start:
            self._settle_idle()

    # -- configuration accessors -------------------------------------------

    @property
    def cooling(self) -> CoolingConfig:
        """Cooling configuration."""
        return self._cooling

    @property
    def amb_temperatures_c(self) -> list[float]:
        """Per-chain-position AMB temperatures (for tests/ablations)."""
        return list(self._t_amb)

    @property
    def dram_temperatures_c(self) -> list[float]:
        """Per-chain-position DRAM temperatures (for tests/ablations)."""
        return list(self._t_dram)

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
        """Restart at the initial (idle-stable or inlet) temperatures."""
        self._t_ambient = self._inlet
        if self._warm_start:
            self._settle_idle()
        else:
            self._t_amb = [self._inlet] * self._dimms
            self._t_dram = [self._inlet] * self._dimms

    # -- checkpoint support ------------------------------------------------

    def thermal_state(self) -> dict:
        """Serializable thermal state (same shape as MemSpot's)."""
        return {
            "t_ambient": self._t_ambient,
            "t_amb": list(self._t_amb),
            "t_dram": list(self._t_dram),
        }

    def load_thermal_state(self, state: dict) -> None:
        """Restore temperatures captured by :meth:`thermal_state`.

        The RC gain cache is invalidated so the first step after a
        restore recomputes the same ``1 - exp(-dt/tau)`` gains a fresh
        kernel would — restored trajectories stay bit-identical.
        """
        self._t_ambient, self._t_amb, self._t_dram = checked_thermal_state(
            state, self._dimms
        )
        self._gain_dt = -1.0

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

    # -- the hot path ------------------------------------------------------

    def _set_dt(self, dt_s: float) -> None:
        if dt_s < 0:
            raise ThermalModelError(f"time step must be non-negative, got {dt_s}")
        self._gain_dt = dt_s
        self._gain_ambient = 1.0 - math.exp(-dt_s / self._tau_ambient)
        self._gain_amb = 1.0 - math.exp(-dt_s / self._tau_amb)
        self._gain_dram = 1.0 - math.exp(-dt_s / self._tau_dram)

    def step(
        self,
        read_bytes_per_s: float,
        write_bytes_per_s: float,
        cpu_heating_sum: float,
        dt_s: float,
    ) -> MemSpotSample:
        """Advance the thermal state by one window (see MemSpot.step)."""
        if read_bytes_per_s < 0 or write_bytes_per_s < 0:
            raise ConfigurationError("channel throughput must be non-negative")
        if dt_s != self._gain_dt:
            self._set_dt(dt_s)

        # Eq. 3.6 ambient node.
        stable_ambient = self._inlet + self._interaction * cpu_heating_sum
        self._t_ambient += (stable_ambient - self._t_ambient) * self._gain_ambient
        ambient_c = self._inlet if self._interaction == 0.0 else self._t_ambient

        # Per-channel traffic split (all channels interleave identically).
        channels = self._channels
        read_ch = read_bytes_per_s / channels
        write_ch = write_bytes_per_s / channels
        total = read_ch + write_ch
        n = self._dimms
        local = total / n
        local_gbps = local / GB
        dram_w = (
            self._dram_static
            + self._alpha1 * ((read_ch / n) / GB)
            + self._alpha2 * ((write_ch / n) / GB)
        )

        beta = self._beta
        gamma = self._gamma
        psi_amb = self._psi_amb
        psi_dram_amb = self._psi_dram_amb
        psi_dram = self._psi_dram
        psi_amb_dram = self._psi_amb_dram
        gain_amb = self._gain_amb
        gain_dram = self._gain_dram
        if n == 4:
            # The default FBDIMM chain, unrolled over locals: the loop
            # below with i = 0..3 (bypass hops 3, 2, 1, 0) written out.
            # Position-invariant products are computed once (each is
            # the same single operation the loop repeats), ``max`` runs
            # over the same left-to-right sequence, and the power sum
            # keeps the loop's ``0.0 +`` start and addition order.
            local_w = gamma * local_gbps
            dram_amb = dram_w * psi_dram_amb
            dram_dram = dram_w * psi_dram
            idle0, idle1, idle2, idle3 = self._idle_w
            ta0, ta1, ta2, ta3 = self._t_amb
            td0, td1, td2, td3 = self._t_dram
            a0 = idle0 + beta * ((total * 3 / 4) / GB) + local_w
            a1 = idle1 + beta * ((total * 2 / 4) / GB) + local_w
            a2 = idle2 + beta * ((total * 1 / 4) / GB) + local_w
            a3 = idle3 + beta * ((total * 0 / 4) / GB) + local_w
            ta0 += (ambient_c + a0 * psi_amb + dram_amb - ta0) * gain_amb
            ta1 += (ambient_c + a1 * psi_amb + dram_amb - ta1) * gain_amb
            ta2 += (ambient_c + a2 * psi_amb + dram_amb - ta2) * gain_amb
            ta3 += (ambient_c + a3 * psi_amb + dram_amb - ta3) * gain_amb
            td0 += (ambient_c + a0 * psi_amb_dram + dram_dram - td0) * gain_dram
            td1 += (ambient_c + a1 * psi_amb_dram + dram_dram - td1) * gain_dram
            td2 += (ambient_c + a2 * psi_amb_dram + dram_dram - td2) * gain_dram
            td3 += (ambient_c + a3 * psi_amb_dram + dram_dram - td3) * gain_dram
            self._t_amb = [ta0, ta1, ta2, ta3]
            self._t_dram = [td0, td1, td2, td3]
            total_power = (
                0.0 + (a0 + dram_w) + (a1 + dram_w) + (a2 + dram_w)
                + (a3 + dram_w)
            )
            return MemSpotSample(
                max(-273.15, ta0, ta1, ta2, ta3),
                max(-273.15, td0, td1, td2, td3),
                ambient_c,
                total_power * channels,
            )

        # Any other chain length: one flat pass over the chain, Eq. 3.2
        # power, Eq. 3.3/3.4 stable points, Eq. 3.5 RC update.
        t_amb = self._t_amb
        t_dram = self._t_dram
        idle_w = self._idle_w
        hops = self._hops
        amb_c = -273.15
        dram_c = -273.15
        total_power = 0.0
        for i in range(n):
            amb_w = idle_w[i] + beta * ((total * hops[i] / n) / GB) + gamma * local_gbps
            stable_amb = ambient_c + amb_w * psi_amb + dram_w * psi_dram_amb
            stable_dram = ambient_c + amb_w * psi_amb_dram + dram_w * psi_dram
            ta = t_amb[i] + (stable_amb - t_amb[i]) * gain_amb
            td = t_dram[i] + (stable_dram - t_dram[i]) * gain_dram
            t_amb[i] = ta
            t_dram[i] = td
            amb_c = max(amb_c, ta)
            dram_c = max(dram_c, td)
            total_power += amb_w + dram_w
        return MemSpotSample(amb_c, dram_c, ambient_c, total_power * channels)
