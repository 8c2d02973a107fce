"""Socket-aware performance model for the Chapter 5 servers.

The measured machines have two dual-core sockets, each with its own 4 MB
shared L2, in front of a single FSB/FBDIMM memory system.  Three running
shapes matter:

1. **Both cores of a socket active** — the two resident programs share
   the socket's L2 (the normal contention case).
2. **One core active, two programs resident** (DTM-ACG disabled a
   sibling) — the programs alternate on the surviving core every
   scheduler time slice.  Each runs *alone* with the whole L2 — this is
   the 27–30% L2-miss reduction of Fig. 5.8 — but pays switch-induced
   cold misses that matter below ~20 ms slices (Fig. 5.15).
3. **One program on a socket** (batch tail) — solo execution.

The sockets couple through memory latency: an outer fixed point iterates
the shared-channel utilization, evaluating each socket at the current
loaded latency.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.cache.sharing import SharedCacheModel
from repro.core.windowmodel import MemoryEnvelope
from repro.errors import ConfigurationError
from repro.testbed.linux import TimeSliceModel
from repro.testbed.platforms import ServerPlatform
from repro.units import CACHE_LINE_BYTES
from repro.workloads.profiles import AppProfile


@dataclass(frozen=True)
class SocketLoad:
    """What one socket is running this interval."""

    #: Programs resident on this socket (1 or 2).
    resident: tuple[AppProfile, ...]
    #: Cores currently online on this socket (1 or 2).
    active_cores: int

    def __post_init__(self) -> None:
        if not 1 <= len(self.resident) <= 2:
            raise ConfigurationError("a socket hosts one or two programs")
        if not 1 <= self.active_cores <= 2:
            raise ConfigurationError("a socket has one or two active cores")


@dataclass(frozen=True)
class ProgramRate:
    """Per-program outputs of one server window."""

    app_name: str
    socket: int
    instructions_per_s: float
    l2_misses_per_s: float
    bytes_per_s: float
    #: Core utilization attributable to this program (for CPU power).
    utilization: float


@dataclass(frozen=True)
class ServerWindowResult:
    """Aggregate outputs of one server window evaluation."""

    programs: tuple[ProgramRate, ...]
    read_bytes_per_s: float
    write_bytes_per_s: float
    l2_misses_per_s: float
    utilization: float
    latency_s: float
    #: Sum over cores of V * reference-IPC for the Eq. 3.6 ambient model.
    heating_sum: float

    @property
    def total_bytes_per_s(self) -> float:
        """Read plus write throughput."""
        return self.read_bytes_per_s + self.write_bytes_per_s


#: Peak sustainable IPC of a Xeon 5160 core (utilization denominator).
_PEAK_IPC = 2.0


class ServerWindowModel:
    """Evaluates one DTM control state on a server platform."""

    def __init__(self, platform: ServerPlatform, iterations: int = 12) -> None:
        self._platform = platform
        self._iterations = iterations
        self._envelope = MemoryEnvelope(
            idle_latency_s=platform.idle_latency_s,
            peak_bandwidth_bytes_per_s=platform.peak_bandwidth_bytes_per_s,
        )
        self._cache_model = SharedCacheModel(platform.l2_per_socket_bytes)
        self._slice_model = TimeSliceModel(platform.l2_per_socket_bytes)
        self._memo: dict[tuple, ServerWindowResult] = {}

    @property
    def envelope(self) -> MemoryEnvelope:
        """The server's memory envelope."""
        return self._envelope

    def evaluate(
        self,
        sockets: list[SocketLoad],
        frequency_hz: float,
        voltage_v: float,
        bandwidth_cap_bytes_per_s: float | None = None,
        time_slice_s: float | None = None,
    ) -> ServerWindowResult:
        """Evaluate one window across all sockets.

        Args:
            sockets: per-socket loads (empty sockets omitted).
            frequency_hz: current core frequency (cpufreq applies to all).
            voltage_v: current supply voltage.
            bandwidth_cap_bytes_per_s: chipset throttle ceiling.
            time_slice_s: scheduler base quantum for core-shared sockets;
                defaults to the platform's 100 ms.
        """
        slice_s = time_slice_s if time_slice_s is not None else self._platform.time_slice_s
        # Exact values, never rounded: the model is shared by every cell
        # of a process, so two inputs that merely round alike must not
        # share a result.
        key = (
            tuple(
                (tuple(a.name for a in s.resident), s.active_cores) for s in sockets
            ),
            frequency_hz,
            voltage_v,
            bandwidth_cap_bytes_per_s,
            slice_s,
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._solve(
            sockets, frequency_hz, voltage_v, bandwidth_cap_bytes_per_s, slice_s
        )
        self._memo[key] = result
        return result

    def _rates_at(
        self,
        sockets: list[SocketLoad],
        frequency_hz: float,
        latency_s: float,
        slice_s: float,
    ) -> tuple[list[ProgramRate], float]:
        """All program rates at one fixed memory latency, plus total demand."""
        programs: list[ProgramRate] = []
        demand = 0.0
        for socket_index, load in enumerate(sockets):
            rates = self._socket_rates(socket_index, load, frequency_hz, latency_s, slice_s)
            programs.extend(rates)
            demand += sum(r.bytes_per_s for r in rates)
        return programs, demand

    def _demand_kernel(
        self,
        sockets: list[SocketLoad],
        frequency_hz: float,
        slice_s: float,
    ) -> Callable[[float], float]:
        """``demand_at(latency_s)``: the total demand of :meth:`_rates_at`
        at one latency, for the bisection steps of :meth:`_solve`.

        The terms that do not depend on latency are taken once per
        socket shape: each program's misses per instruction at half
        capacity (shape 1's co-runner estimate) or full capacity
        (shapes 2 and 3), shape 2's time-slice extra misses, and
        ``spec + write_frac``.  ``demand_at`` then performs exactly the
        float operations of :meth:`_rates_at` in the same order, so the
        two agree bit for bit.  A socket's total starts at integer 0 and
        adds its one or two programs left to right, which is what
        ``sum()`` computes there on every Python version.
        """
        capacity = self._platform.l2_per_socket_bytes
        top_frequency = self._platform.cpu_power.operating_points[0].frequency_hz
        solve = self._cache_model.solve
        plan = []
        for load in sockets:
            apps = load.resident
            shared = len(apps) == 2 and load.active_cores == 2
            time_shared = len(apps) == 2 and load.active_cores == 1
            duty = 0.5 if time_shared else 1.0
            programs = []
            for app in apps:
                extra = 0.0
                if time_shared:
                    resident = min(app.mrc.c_half_bytes, capacity)
                    extra = self._slice_model.extra_misses_per_s(slice_s, resident)
                spec = 1.0 + app.spec_traffic_frac * frequency_hz / top_frequency
                programs.append((
                    app.cpi_base,
                    app.mlp,
                    app.misses_per_instruction(capacity / 2 if shared else capacity),
                    app.apki,
                    extra,
                    extra * duty,
                    spec + app.write_frac,
                ))
            curves = [app.mrc for app in apps] if shared else None
            plan.append((programs, curves, duty))

        def demand_at(latency_s: float) -> float:
            latency_cycles = latency_s * frequency_hz
            demand = 0.0
            for programs, curves, duty in plan:
                if curves is not None:
                    # Shape 1: the co-runners' shares at this latency.
                    rates = [
                        frequency_hz
                        * (1.0 / (cpi + mpi_half * latency_cycles / mlp))
                        * apki
                        / 1000.0
                        for cpi, mlp, mpi_half, apki, _, _, _ in programs
                    ]
                    _, ratios = solve(rates, curves)
                    mpis = [
                        apki / 1000.0 * ratio
                        for (_, _, _, apki, _, _, _), ratio in zip(programs, ratios)
                    ]
                else:
                    mpis = [mpi for _, _, mpi, _, _, _, _ in programs]
                total = 0
                for (cpi, mlp, _, _, extra, extra_duty, traffic), mpi in zip(
                    programs, mpis
                ):
                    ips = frequency_hz * (1.0 / (cpi + mpi * latency_cycles / mlp)) * duty
                    misses = ips * mpi
                    if extra > 0.0 and ips > 0.0:
                        mpi = mpi + extra_duty / ips
                        ips = frequency_hz * (1.0 / (cpi + mpi * latency_cycles / mlp)) * duty
                        misses = ips * mpi
                    total = total + misses * CACHE_LINE_BYTES * traffic
                demand += total
            return demand

        return demand_at

    def _solve(
        self,
        sockets: list[SocketLoad],
        frequency_hz: float,
        voltage_v: float,
        cap: float | None,
        slice_s: float,
    ) -> ServerWindowResult:
        """Bisection on the shared-channel utilization.

        Demand is monotone decreasing in latency, and latency monotone
        increasing in utilization, so ``demand(L(u)) - u * B`` has a
        unique root — the served operating point.  If demand exceeds
        capacity even at the saturated latency (tiny caps), rates are
        scaled down uniformly: hard admission control at the controller.
        """
        envelope = self._envelope
        effective_peak = envelope.peak_bandwidth_bytes_per_s
        if cap is not None:
            effective_peak = min(effective_peak, max(cap, 1.0))
        rho_max = envelope.rho_max
        programs, demand = self._rates_at(
            sockets, frequency_hz, envelope.latency_s(rho_max), slice_s
        )
        if demand >= rho_max * effective_peak:
            # Saturated even at the worst queueing delay: admission control.
            scale = rho_max * effective_peak / demand if demand > 0 else 1.0
            programs = [
                ProgramRate(
                    app_name=p.app_name,
                    socket=p.socket,
                    instructions_per_s=p.instructions_per_s * scale,
                    l2_misses_per_s=p.l2_misses_per_s * scale,
                    bytes_per_s=p.bytes_per_s * scale,
                    utilization=p.utilization * scale,
                )
                for p in programs
            ]
            utilization = rho_max
            latency = envelope.latency_s(rho_max)
        else:
            demand_at = self._demand_kernel(sockets, frequency_hz, slice_s)
            lo, hi = 0.0, rho_max
            for _ in range(max(self._iterations, 20)):
                mid = (lo + hi) / 2.0
                if demand_at(envelope.latency_s(mid)) > mid * effective_peak:
                    lo = mid
                else:
                    hi = mid
            utilization = (lo + hi) / 2.0
            latency = envelope.latency_s(utilization)
            programs, _ = self._rates_at(sockets, frequency_hz, latency, slice_s)
        total_read = 0.0
        total_write = 0.0
        total_misses = 0.0
        heating = 0.0
        max_frequency = self._platform.cpu_power.operating_points[0].frequency_hz
        for rate in programs:
            app_write_frac = _write_frac_by_name(sockets, rate.app_name)
            write = rate.bytes_per_s * app_write_frac / (1.0 + app_write_frac)
            total_write += write
            total_read += rate.bytes_per_s - write
            total_misses += rate.l2_misses_per_s
            heating += voltage_v * rate.instructions_per_s / max_frequency
        return ServerWindowResult(
            programs=tuple(programs),
            read_bytes_per_s=total_read,
            write_bytes_per_s=total_write,
            l2_misses_per_s=total_misses,
            utilization=min(utilization, 1.0),
            latency_s=latency,
            heating_sum=heating,
        )

    def _socket_rates(
        self,
        socket_index: int,
        load: SocketLoad,
        frequency_hz: float,
        latency_s: float,
        slice_s: float,
    ) -> list[ProgramRate]:
        """Per-program rates of one socket at a fixed memory latency."""
        capacity = self._platform.l2_per_socket_bytes
        latency_cycles = latency_s * frequency_hz
        apps = load.resident
        if len(apps) == 2 and load.active_cores == 2:
            # Shape 1: both cores run; programs share the L2.
            shares = self._shared_shares(apps, frequency_hz, latency_cycles)
            rates = []
            for app, share in zip(apps, shares):
                rates.append(
                    self._program_rate(
                        socket_index, app, frequency_hz, latency_cycles, share, 1.0, 0.0
                    )
                )
            return rates
        if len(apps) == 2 and load.active_cores == 1:
            # Shape 2: time-shared core; each program runs alone with the
            # whole L2 for half the time, paying switch cold misses.
            rates = []
            for app in apps:
                resident = min(app.mrc.c_half_bytes, capacity)
                extra = self._slice_model.extra_misses_per_s(slice_s, resident)
                rates.append(
                    self._program_rate(
                        socket_index,
                        app,
                        frequency_hz,
                        latency_cycles,
                        capacity,
                        duty=0.5,
                        extra_misses_per_s=extra,
                    )
                )
            return rates
        # Shape 3: one program (tail of the batch) — solo with full cache.
        rates = []
        for app in apps:
            rates.append(
                self._program_rate(
                    socket_index, app, frequency_hz, latency_cycles, capacity, 1.0, 0.0
                )
            )
        return rates

    def _shared_shares(
        self, apps: tuple[AppProfile, ...], frequency_hz: float, latency_cycles: float
    ) -> list[float]:
        """Cache shares of two co-runners (insertion-rate fixed point)."""
        ipc_estimates = []
        for app in apps:
            mpi = app.misses_per_instruction(self._platform.l2_per_socket_bytes / 2)
            ipc_estimates.append(1.0 / (app.cpi_base + mpi * latency_cycles / app.mlp))
        rates = [
            frequency_hz * ipc * app.apki / 1000.0
            for ipc, app in zip(ipc_estimates, apps)
        ]
        shares, _ = self._cache_model.solve(rates, [app.mrc for app in apps])
        return shares

    def _program_rate(
        self,
        socket_index: int,
        app: AppProfile,
        frequency_hz: float,
        latency_cycles: float,
        cache_share_bytes: float,
        duty: float,
        extra_misses_per_s: float,
    ) -> ProgramRate:
        """Closed-form rate of one program at fixed latency and share."""
        mpi = app.misses_per_instruction(cache_share_bytes)
        ipc_solo = 1.0 / (app.cpi_base + mpi * latency_cycles / app.mlp)
        ips = frequency_hz * ipc_solo * duty
        misses = ips * mpi
        if extra_misses_per_s > 0.0 and ips > 0.0:
            # Charge the cold misses: extra miss rate while running, with
            # the corresponding pipeline stalls folded into IPS.
            extra_mpi = extra_misses_per_s * duty / ips
            ipc_adj = 1.0 / (
                app.cpi_base + (mpi + extra_mpi) * latency_cycles / app.mlp
            )
            ips = frequency_hz * ipc_adj * duty
            misses = ips * (mpi + extra_mpi)
        top_frequency = self._platform.cpu_power.operating_points[0].frequency_hz
        spec = 1.0 + app.spec_traffic_frac * frequency_hz / top_frequency
        bytes_per_s = misses * CACHE_LINE_BYTES * (spec + app.write_frac)
        utilization = min(1.0, (ips / frequency_hz) / _PEAK_IPC) if frequency_hz else 0.0
        return ProgramRate(
            app_name=app.name,
            socket=socket_index,
            instructions_per_s=ips,
            l2_misses_per_s=misses,
            bytes_per_s=bytes_per_s,
            utilization=utilization,
        )

    def clear_cache(self) -> None:
        """Drop memoized evaluations."""
        self._memo.clear()


def _write_frac_by_name(sockets: list[SocketLoad], name: str) -> float:
    """Find a program's write fraction by name (for the read/write split)."""
    for load in sockets:
        for app in load.resident:
            if app.name == name:
                return app.write_frac
    return 0.3
