"""Level-1 analytic performance model, evaluated per 10 ms window.

The paper's first-level simulator runs cycle-accurate M5 once per
(workload, design point) to produce windowed performance / throughput
traces (§4.3.1).  We replace the cycle-accurate run with an analytic
multicore model whose outputs live in exactly the same vocabulary —
per-window instructions retired and read/write memory throughput — built
from first-order architecture relations:

1. **Shared cache contention** — each co-runner's effective L2 share and
   miss ratio come from the insertion-rate fixed point of
   :class:`repro.cache.sharing.SharedCacheModel`.
2. **Memory latency under load** — an M/D/1-flavored queueing curve over
   the channel utilization, calibrated against the cycle-level FBDIMM
   simulator (:mod:`repro.core.calibration`).
3. **Core IPC** — ``1 / (CPI_base + MPI * L_cycles / MLP)``: misses
   overlap by the application's memory-level parallelism.
4. **Speculative traffic** — a frequency-proportional surcharge, which is
   why DVFS trims total traffic by a few percent (§4.4.2).

The fixed point couples 1–3 (shares depend on access rates, rates on
IPC, IPC on latency, latency on total demand) and converges in a handful
of damped iterations.  Results are memoized: within a batch run the
(running apps, control state) pair recurs for thousands of windows.

A memo miss is still the costliest call of a cold cell: a bisection over
utilization whose every point runs ``IPC_SWEEPS`` cache-sharing solves.
It is written for speed under one exactness contract, shared with
:mod:`repro.cache.sharing`: only values are hoisted (per-app constants,
which no latency changes), never operations.  Each expression keeps its
operations and their left-to-right order — the access rate stays
``frequency_hz * ipc * apki / 1000.0`` —
and sums keep their order, so every output bit matches the plain
per-client loop the tests keep as an oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.cache.sharing import SharedCacheModel
from repro.engine.codec import Float, check_domain, domain
from repro.units import CACHE_LINE_BYTES
from repro.workloads.profiles import AppProfile

#: Bisection steps on channel utilization per evaluation.
BISECTION_STEPS = 24
#: Damped IPC sweeps per fixed memory latency, one cache-sharing solve
#: each.
IPC_SWEEPS = 8
#: The top core frequency (Table 4.4's first DVFS point): the reference
#: cycles of the ambient model.
MAX_FREQUENCY_HZ = 3.2e9
#: The Table 4.1 shared L2, which the four cores split.
L2_CAPACITY_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class MemoryEnvelope:
    """The memory system's latency/bandwidth envelope seen by the cores.

    Defaults match the Table 4.1 platform (4 physical channels of
    FBDIMM-DDR2-667) as calibrated by the cycle-level simulator: ~65 ns
    unloaded latency, and a combined read+write peak of 25.6 GB/s —
    northbound-limited reads (4 x 5.33 GB/s, matching §2.2's "21 GB/s"
    figure) plus extra southbound write capacity (§3.2: "the overall
    bandwidth of a FBDIMM channel is higher than that of a DDR2 channel
    because the write bandwidth is extra"; Table 4.4 lists 25.6 GB/s as
    DTM-BW's unthrottled operating point).
    """

    idle_latency_s: float = domain(Float(0.0, strict=True), 65e-9)
    peak_bandwidth_bytes_per_s: float = domain(Float(0.0, strict=True), 25.6e9)
    #: Queueing-delay coefficient of the latency curve.
    queue_coefficient: float = domain(Float(0.0), 0.35)
    #: Utilization ceiling, in (0, 1): the latency curve divides by
    #: ``1 - rho``.  The fixed point settles just below it.
    rho_max: float = domain(Float(0.0, math.nextafter(1.0, 0.0), strict=True), 0.98)

    __post_init__ = check_domain

    def latency_s(self, utilization: float) -> float:
        """Loaded memory latency at a given channel utilization."""
        rho = min(max(utilization, 0.0), self.rho_max)
        queueing = self.queue_coefficient * rho**4 / (1.0 - rho)
        return self.idle_latency_s * (1.0 + queueing)


@dataclass(frozen=True)
class SlotResult:
    """Per-core-slot outputs of one window evaluation."""

    app_name: str
    instructions_per_s: float
    ipc: float
    l2_accesses_per_s: float
    l2_misses_per_s: float
    read_bytes_per_s: float
    write_bytes_per_s: float


@dataclass(frozen=True)
class WindowResult:
    """Aggregate outputs of one window evaluation."""

    slots: tuple[SlotResult, ...]
    read_bytes_per_s: float
    write_bytes_per_s: float
    utilization: float
    latency_s: float

    @property
    def total_bytes_per_s(self) -> float:
        """Read + write throughput."""
        return self.read_bytes_per_s + self.write_bytes_per_s

    @property
    def instructions_per_s(self) -> float:
        """Aggregate instruction rate across slots."""
        return sum(slot.instructions_per_s for slot in self.slots)

    @property
    def l2_misses_per_s(self) -> float:
        """Aggregate L2 miss rate."""
        return sum(slot.l2_misses_per_s for slot in self.slots)


def operating_point(
    envelope: MemoryEnvelope,
    effective_peak: float,
    rates_at: Callable[[float], tuple],
    steps: int,
) -> tuple[float, float, float, Any]:
    """The served operating point of a level-1 model.

    ``rates_at(latency_s)`` returns the model's rates at one pinned
    memory latency, total demand (bytes/s) last.  Demand falls as
    latency grows and latency grows with utilization, so
    ``demand(L(u)) - u * effective_peak`` has one root: ``steps``
    bisections on utilization find it.  When demand exceeds the peak
    even at the saturated latency (tight caps), the memory controller
    admits traffic at the peak and every rate scales down uniformly.

    Returns ``(utilization, latency_s, scale, rates)``: ``rates`` is
    ``rates_at(latency_s)``, to be multiplied by the admission
    ``scale`` (1.0 unless saturated).
    """
    rho_max = envelope.rho_max
    latency = envelope.latency_s(rho_max)
    rates = rates_at(latency)
    demand = rates[-1]
    if demand >= rho_max * effective_peak:
        scale = rho_max * effective_peak / demand if demand > 0 else 1.0
        return rho_max, latency, scale, rates
    lo, hi = 0.0, rho_max
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        if rates_at(envelope.latency_s(mid))[-1] > mid * effective_peak:
            lo = mid
        else:
            hi = mid
    utilization = (lo + hi) / 2.0
    latency = envelope.latency_s(utilization)
    return utilization, latency, 1.0, rates_at(latency)


#: Idle window: nothing running (or memory off).
def _idle_result(app_names: tuple[str, ...]) -> WindowResult:
    slots = tuple(
        SlotResult(
            app_name=name,
            instructions_per_s=0.0,
            ipc=0.0,
            l2_accesses_per_s=0.0,
            l2_misses_per_s=0.0,
            read_bytes_per_s=0.0,
            write_bytes_per_s=0.0,
        )
        for name in app_names
    )
    return WindowResult(
        slots=slots,
        read_bytes_per_s=0.0,
        write_bytes_per_s=0.0,
        utilization=0.0,
        latency_s=0.0,
    )


class _FixedLatencyRates:
    """IPC, miss ratios and demand of one app set at a pinned latency.

    Built once per :meth:`WindowModel._solve`: it holds the per-app
    constants of that call.
    """

    def __init__(
        self,
        apps: list[AppProfile],
        frequency_hz: float,
        frequency_scale: float,
        cache_model: SharedCacheModel,
    ) -> None:
        self._frequency_hz = frequency_hz
        self._solve = cache_model.solve
        self._curves = [app.mrc for app in apps]
        self._apkis = [app.apki for app in apps]
        self._cpis = [app.cpi_base for app in apps]
        self._mlps = [app.mlp for app in apps]
        self._mpi_per_miss = [app.apki / 1000.0 for app in apps]
        self._traffic = [
            1.0 + app.spec_traffic_frac * frequency_scale + app.write_frac for app in apps
        ]
        self._first_ipc = [1.0 / cpi for cpi in self._cpis]

    def _access_rates(self, ipc: list[float]) -> list[float]:
        frequency_hz = self._frequency_hz
        return [frequency_hz * x * apki / 1000.0 for x, apki in zip(ipc, self._apkis)]

    def at_latency(self, latency_s: float) -> tuple[list[float], list[float], float]:
        """IPC, miss ratios and total demand (bytes/s) at one latency.

        With the latency pinned, the only remaining coupling is between
        cache shares and access rates, which converges quickly under
        damping.
        """
        frequency_hz = self._frequency_hz
        cpis, mlps, mpi_per_miss = self._cpis, self._mlps, self._mpi_per_miss
        latency_cycles = latency_s * frequency_hz
        ipc = self._first_ipc
        for _ in range(IPC_SWEEPS):
            _, miss_ratio = self._solve(self._access_rates(ipc), self._curves)
            ipc = [
                x + (1.0 / (cpi + per_miss * miss * latency_cycles / mlp) - x) * 0.6
                for x, cpi, per_miss, miss, mlp in zip(
                    ipc, cpis, mpi_per_miss, miss_ratio, mlps
                )
            ]
        demand = 0.0
        for x, per_miss, miss, traffic in zip(ipc, mpi_per_miss, miss_ratio, self._traffic):
            demand += frequency_hz * x * (per_miss * miss * CACHE_LINE_BYTES * traffic)
        return ipc, miss_ratio, demand


class WindowModel:
    """Evaluates one control state for one set of co-running applications.

    Args:
        l2_capacity_bytes: shared L2 size.
        envelope: the memory latency/bandwidth envelope.

    Results are memoized by (apps, control state).  The evaluation is
    deterministic, so this is exact, and it is what makes thousand-second
    batch runs fast.
    """

    def __init__(
        self,
        l2_capacity_bytes: float = L2_CAPACITY_BYTES,
        envelope: MemoryEnvelope | None = None,
    ) -> None:
        self._l2_capacity = l2_capacity_bytes
        self._max_frequency_hz = MAX_FREQUENCY_HZ
        self._envelope = envelope if envelope is not None else MemoryEnvelope()
        self._cache: dict[tuple, WindowResult] = {}
        self._cache_model = SharedCacheModel(l2_capacity_bytes)

    @property
    def envelope(self) -> MemoryEnvelope:
        """The memory envelope in use."""
        return self._envelope

    @property
    def max_frequency_hz(self) -> float:
        """The top core frequency."""
        return self._max_frequency_hz

    @property
    def cache_entries(self) -> int:
        """Number of memoized window evaluations (for tests)."""
        return len(self._cache)

    def evaluate(
        self,
        apps: list[AppProfile],
        frequency_hz: float,
        bandwidth_cap_bytes_per_s: float | None = None,
        memory_on: bool = True,
    ) -> WindowResult:
        """Evaluate one window.

        Args:
            apps: the applications running this window (one per active
                core slot; duplicates allowed).
            frequency_hz: current core frequency.
            bandwidth_cap_bytes_per_s: DTM-BW traffic ceiling (None = no
                cap; 0 behaves as memory off).
            memory_on: False models thermal shutdown — every core stalls
                on its first miss, so progress and traffic are zero.

        Returns:
            The window's :class:`WindowResult`.
        """
        names = tuple(app.name for app in apps)
        off = (
            not memory_on
            or frequency_hz <= 0.0
            or not apps
            or (bandwidth_cap_bytes_per_s is not None and bandwidth_cap_bytes_per_s <= 0.0)
        )
        if off:
            return _idle_result(names)
        key = (
            tuple(sorted(names)),
            round(frequency_hz),
            None
            if bandwidth_cap_bytes_per_s is None
            else round(bandwidth_cap_bytes_per_s),
        )
        result = self._cache.get(key)
        if result is None:
            result = self._solve(apps, frequency_hz, bandwidth_cap_bytes_per_s)
            self._cache[key] = result
        return self._reorder(result, names)

    @staticmethod
    def _reorder(result: WindowResult, names: tuple[str, ...]) -> WindowResult:
        """Return a result whose slots follow the caller's app order."""
        current = tuple(slot.app_name for slot in result.slots)
        if current == names:
            return result
        pool: dict[str, list[SlotResult]] = {}
        for slot in result.slots:
            pool.setdefault(slot.app_name, []).append(slot)
        ordered = tuple(pool[name].pop() for name in names)
        return WindowResult(
            slots=ordered,
            read_bytes_per_s=result.read_bytes_per_s,
            write_bytes_per_s=result.write_bytes_per_s,
            utilization=result.utilization,
            latency_s=result.latency_s,
        )

    def _solve(
        self, apps: list[AppProfile], frequency_hz: float, cap: float | None
    ) -> WindowResult:
        """The window at its served operating point (:func:`operating_point`)."""
        effective_peak = self._envelope.peak_bandwidth_bytes_per_s
        if cap is not None:
            effective_peak = min(effective_peak, cap)
        frequency_scale = frequency_hz / self._max_frequency_hz
        rates = _FixedLatencyRates(apps, frequency_hz, frequency_scale, self._cache_model)
        utilization, latency, scale, (ipc, miss_ratio, _) = operating_point(
            self._envelope, effective_peak, rates.at_latency, BISECTION_STEPS
        )
        slots = []
        total_read = 0.0
        total_write = 0.0
        for index, app in enumerate(apps):
            ips = frequency_hz * ipc[index] * scale
            accesses = ips * app.apki / 1000.0
            misses = accesses * miss_ratio[index]
            spec = 1.0 + app.spec_traffic_frac * frequency_scale
            read_bps = misses * CACHE_LINE_BYTES * spec
            write_bps = misses * CACHE_LINE_BYTES * app.write_frac
            total_read += read_bps
            total_write += write_bps
            slots.append(
                SlotResult(
                    app_name=app.name,
                    instructions_per_s=ips,
                    ipc=ipc[index] * scale,
                    l2_accesses_per_s=accesses,
                    l2_misses_per_s=misses,
                    read_bytes_per_s=read_bps,
                    write_bytes_per_s=write_bps,
                )
            )
        return WindowResult(
            slots=tuple(slots),
            read_bytes_per_s=total_read,
            write_bytes_per_s=total_write,
            utilization=min(utilization, 1.0),
            latency_s=latency,
        )
