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

Numerical contract: every expression below reproduces the scalar path's
floating-point operations *in the same order*, so the batched and
per-node kernels are bit-identical, not merely close.  The golden-master
suite and the property tests in ``tests/test_property_invariants.py``
enforce this equivalence.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.core.memspot import MemSpot, MemSpotSample
from repro.errors import ConfigurationError, ThermalModelError
from repro.params.power_params import AMBPowerParams, DRAMPowerParams
from repro.params.thermal_params import AmbientModelParams, CoolingConfig
from repro.units import GB


def _import_numpy():
    """NumPy if importable, else None.

    NumPy is an optional accelerator, never a dependency: every caller
    of :class:`GridMemSpot` works (bit-identically) without it, just on
    the pure-python cell loop instead of stacked arrays.
    """
    try:
        import numpy
    except Exception:  # pragma: no cover - exercised via monkeypatch
        return None
    return numpy


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
    def dimms_per_channel(self) -> int:
        """Chain length — :class:`GridMemSpot` cells must share it."""
        return self._dimms

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
        t_amb = state["t_amb"]
        t_dram = state["t_dram"]
        if len(t_amb) != self._dimms or len(t_dram) != self._dimms:
            raise ConfigurationError(
                f"thermal state has {len(t_amb)} DIMM positions, "
                f"this chain has {self._dimms}"
            )
        self._t_ambient = float(state["t_ambient"])
        self._t_amb = [float(t) for t in t_amb]
        self._t_dram = [float(t) for t in t_dram]
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

        # One flat pass over the chain: Eq. 3.2 power, Eq. 3.3/3.4 stable
        # points, Eq. 3.5 RC update.
        beta = self._beta
        gamma = self._gamma
        psi_amb = self._psi_amb
        psi_dram_amb = self._psi_dram_amb
        psi_dram = self._psi_dram
        psi_amb_dram = self._psi_amb_dram
        gain_amb = self._gain_amb
        gain_dram = self._gain_dram
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
        return MemSpotSample(
            amb_c=amb_c,
            dram_c=dram_c,
            ambient_c=ambient_c,
            memory_power_w=total_power * channels,
        )


class GridMemSpot:
    """N compatible cells' thermal chains stepped as one flat grid.

    A *grid* stacks the RC state of many :class:`BatchedMemSpot` cells
    along an extra cell axis: every cell shares the chain topology (the
    DIMMs-per-channel count fixes the number of RC nodes) while all
    per-cell parameters — cooling resistances, inlet/interaction,
    channel count, power coefficients — broadcast per cell.  One
    :meth:`step_all` advances every cell by one window, which is what
    lets a gang (:mod:`repro.engine.gang`) pay the per-window kernel
    dispatch once for a whole campaign batch.

    Two backends, selected by ``backend``:

    - ``"python"`` — delegates to each cell's own
      :meth:`BatchedMemSpot.step`, so equivalence with per-cell
      stepping holds by construction;
    - ``"numpy"`` — keeps the state in ``(cells, dimms)`` float64
      arrays and replays the scalar kernel's expressions elementwise.
      Only IEEE-correctly-rounded elementwise operations are used (the
      RC gains still come from per-cell :func:`math.exp`, the chain
      power sum still accumulates position by position), so the array
      path is **bit-identical** to the scalar one — the property suite
      enforces this, and the scalar kernels remain the golden
      reference.
    - ``"auto"`` (default) — ``numpy`` when importable, else
      ``python``.  NumPy stays an optional extra, never a dependency.

    The cell kernels are the source of truth between grids: the NumPy
    backend copies their state in at construction and writes it back on
    :meth:`sync` (cheap, and required before reading a cell's
    ``thermal_state()`` — e.g. for an engine checkpoint).  The python
    backend mutates the cells directly, so ``sync`` is a no-op.
    """

    def __init__(
        self, cells: Sequence[BatchedMemSpot], backend: str = "auto"
    ) -> None:
        cells = list(cells)
        if not cells:
            raise ConfigurationError("a grid needs at least one cell")
        for cell in cells:
            if not isinstance(cell, BatchedMemSpot):
                raise ConfigurationError(
                    f"grid cells must be BatchedMemSpot kernels, "
                    f"got {type(cell).__name__}"
                )
        dimms = cells[0].dimms_per_channel
        if any(cell.dimms_per_channel != dimms for cell in cells):
            raise ConfigurationError(
                "grid cells must share the RC topology "
                "(equal dimms_per_channel)"
            )
        if backend == "auto":
            self._np = _import_numpy()
        elif backend == "numpy":
            self._np = _import_numpy()
            if self._np is None:
                raise ConfigurationError(
                    "backend='numpy' requires NumPy (not importable here); "
                    "use backend='auto' or 'python'"
                )
        elif backend == "python":
            self._np = None
        else:
            raise ConfigurationError(
                f"backend must be 'auto', 'numpy' or 'python', got {backend!r}"
            )
        self._cells = cells
        self._dimms = dimms
        if self._np is not None:
            self._pull()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> tuple[BatchedMemSpot, ...]:
        """The per-cell kernels, in grid order."""
        return tuple(self._cells)

    @property
    def backend(self) -> str:
        """The resolved backend: ``"numpy"`` or ``"python"``."""
        return "python" if self._np is None else "numpy"

    # -- numpy state management --------------------------------------------

    def _pull(self) -> None:
        """Load every cell's state and constants into stacked arrays."""
        np = self._np
        cells = self._cells

        def rows(name: str):
            return np.asarray([getattr(c, name) for c in cells], dtype=np.float64)

        self._idle_w = rows("_idle_w")                    # (N, n)
        self._t_amb = rows("_t_amb")
        self._t_dram = rows("_t_dram")
        self._t_ambient = rows("_t_ambient")              # (N,)
        self._beta = rows("_beta")
        self._gamma = rows("_gamma")
        self._dram_static = rows("_dram_static")
        self._alpha1 = rows("_alpha1")
        self._alpha2 = rows("_alpha2")
        self._psi_amb = rows("_psi_amb")
        self._psi_dram_amb = rows("_psi_dram_amb")
        self._psi_dram = rows("_psi_dram")
        self._psi_amb_dram = rows("_psi_amb_dram")
        self._inlet = rows("_inlet")
        self._interaction = rows("_interaction")
        self._channels = rows("_channels")
        #: Cells whose ambient model is isolated report the fixed inlet
        #: as their ambient reading (the scalar kernel's ``== 0.0``
        #: branch, as a per-cell select).
        self._isolated = self._interaction == 0.0
        #: Bypass hop counts are topology-shared small ints (see
        #: BatchedMemSpot._hops), stored as a float64 row so the 2-D
        #: bypass expression broadcasts them per position.  The int ->
        #: float64 conversion is exact, so ``total * hops / n`` performs
        #: the scalar path's operations bit for bit.
        self._hops = np.asarray(
            [float(self._dimms - 1 - i) for i in range(self._dimms)]
        )
        #: Per-cell RC time constants, kept as python lists: the gains
        #: ``1 - exp(-dt/tau)`` must come from ``math.exp`` per cell
        #: (np.exp is not guaranteed bit-identical to libm).
        self._taus_ambient = [c._tau_ambient for c in cells]
        self._taus_amb = [c._tau_amb for c in cells]
        self._taus_dram = [c._tau_dram for c in cells]
        self._gain_dt = -1.0

    def sync(self) -> None:
        """Write the stacked state back into the per-cell kernels.

        Call before reading any cell's ``thermal_state()``/``sample()``
        (checkpoints, finalization) and before handing cells to another
        grid.  The python backend steps the cells directly, so there is
        nothing to write back.
        """
        if self._np is None:
            return
        t_amb = self._t_amb.tolist()
        t_dram = self._t_dram.tolist()
        t_ambient = self._t_ambient.tolist()
        for cell, ta, td, tam in zip(self._cells, t_amb, t_dram, t_ambient):
            cell._t_amb = ta
            cell._t_dram = td
            cell._t_ambient = tam
            # Mirror load_thermal_state: force a gain recompute on the
            # cell's next solo step (recomputed gains are identical).
            cell._gain_dt = -1.0

    def _set_dt(self, dt_s: float) -> None:
        if dt_s < 0:
            raise ThermalModelError(
                f"time step must be non-negative, got {dt_s}"
            )
        np = self._np
        self._gain_dt = dt_s
        self._gain_ambient = np.asarray(
            [1.0 - math.exp(-dt_s / tau) for tau in self._taus_ambient]
        )
        self._gain_amb = np.asarray(
            [1.0 - math.exp(-dt_s / tau) for tau in self._taus_amb]
        )
        self._gain_dram = np.asarray(
            [1.0 - math.exp(-dt_s / tau) for tau in self._taus_dram]
        )

    # -- the hot path ------------------------------------------------------

    def step_all(
        self,
        read_bytes_per_s: Sequence[float],
        write_bytes_per_s: Sequence[float],
        cpu_heating_sums: Sequence[float],
        dt_s: float,
    ) -> tuple[Any, Any, Any, Any]:
        """Advance every cell by one window.

        The three traffic sequences give each cell its own window
        input; ``dt_s`` is shared — the gang's lock-step cadence is
        what makes cells compatible.  Returns ``(amb_peak_c,
        dram_peak_c, ambient_c, memory_power_w)`` as four (N,) float64
        arrays (NumPy backend) or lists (python backend): the exact
        values each cell's :class:`~repro.core.memspot.MemSpotSample`
        would carry, with no per-cell object built.
        """
        count = len(self._cells)
        if (
            len(read_bytes_per_s) != count
            or len(write_bytes_per_s) != count
            or len(cpu_heating_sums) != count
        ):
            raise ConfigurationError(
                f"step_all needs one input per cell ({count}), got "
                f"{len(read_bytes_per_s)}/{len(write_bytes_per_s)}/"
                f"{len(cpu_heating_sums)}"
            )
        if self._np is None:
            samples = [
                cell.step(read_bps, write_bps, heating, dt_s)
                for cell, read_bps, write_bps, heating in zip(
                    self._cells,
                    read_bytes_per_s,
                    write_bytes_per_s,
                    cpu_heating_sums,
                )
            ]
            return (
                [s.amb_c for s in samples],
                [s.dram_c for s in samples],
                [s.ambient_c for s in samples],
                [s.memory_power_w for s in samples],
            )
        np = self._np
        if min(read_bytes_per_s) < 0 or min(write_bytes_per_s) < 0:
            raise ConfigurationError("channel throughput must be non-negative")
        return self._step_numpy(
            np.asarray(read_bytes_per_s, dtype=np.float64),
            np.asarray(write_bytes_per_s, dtype=np.float64),
            np.asarray(cpu_heating_sums, dtype=np.float64),
            dt_s,
        )

    def _step_numpy(self, reads, writes, heats, dt_s: float):
        """The numpy chain pass over (N,) input arrays."""
        np = self._np
        if dt_s != self._gain_dt:
            self._set_dt(dt_s)

        # Eq. 3.6 ambient node, one lane per cell.
        stable_ambient = self._inlet + self._interaction * heats
        self._t_ambient = self._t_ambient + (
            stable_ambient - self._t_ambient
        ) * self._gain_ambient
        ambient_c = np.where(self._isolated, self._inlet, self._t_ambient)

        # Per-channel traffic split (per-cell channel counts broadcast).
        read_ch = reads / self._channels
        write_ch = writes / self._channels
        total = read_ch + write_ch
        n = self._dimms
        local = total / n
        local_gbps = local / GB
        dram_w = (
            self._dram_static
            + self._alpha1 * ((read_ch / n) / GB)
            + self._alpha2 * ((write_ch / n) / GB)
        )

        # The whole chain pass on the (cells, dimms) plane at once.
        # Each scalar per-position expression becomes one elementwise
        # op over the full plane — the identical IEEE operations in the
        # identical order, issued once per window instead of once per
        # position (the per-position issue overhead used to dominate
        # the grid step at gang widths).  Only max (exact, no rounding)
        # reduces across positions; the chain power sum stays a
        # sequential column accumulation because np.sum's pairwise
        # reduction would round differently from the scalar kernel's
        # position-by-position additions.
        ambient_col = ambient_c[:, None]
        amb_w = (
            self._idle_w
            + self._beta[:, None] * ((total[:, None] * self._hops / n) / GB)
            + self._gamma[:, None] * local_gbps[:, None]
        )
        dram_col = dram_w[:, None]
        stable_amb = (
            ambient_col
            + amb_w * self._psi_amb[:, None]
            + dram_col * self._psi_dram_amb[:, None]
        )
        stable_dram = (
            ambient_col
            + amb_w * self._psi_amb_dram[:, None]
            + dram_col * self._psi_dram[:, None]
        )
        self._t_amb = self._t_amb + (
            stable_amb - self._t_amb
        ) * self._gain_amb[:, None]
        self._t_dram = self._t_dram + (
            stable_dram - self._t_dram
        ) * self._gain_dram[:, None]
        amb_peak = np.max(self._t_amb, axis=1)
        dram_peak = np.max(self._t_dram, axis=1)
        chain_w = amb_w + dram_col
        total_power = np.zeros(len(self._cells))
        for i in range(n):
            total_power = total_power + chain_w[:, i]
        power = total_power * self._channels
        return amb_peak, dram_peak, ambient_c, power
