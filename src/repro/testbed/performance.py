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

The sockets couple through memory latency.  One routine gives every
program's rate, and the total demand, at one loaded latency; the
served operating point is a bisection on the shared-channel
utilization over that routine
(:func:`repro.core.windowmodel.operating_point`, shared with the
Chapter 4 model).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.cache.sharing import SharedCacheModel
from repro.core.windowmodel import MemoryEnvelope, operating_point
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
#: Bisection steps on the shared-channel utilization per evaluation.
BISECTION_STEPS = 20


class ServerWindowModel:
    """Evaluates one DTM control state on a server platform."""

    def __init__(self, platform: ServerPlatform) -> None:
        self._platform = platform
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

    def _latency_rates(
        self,
        sockets: list[SocketLoad],
        frequency_hz: float,
        slice_s: float,
    ) -> Callable[[float], tuple[list[tuple[float, float, float]], float]]:
        """``rates_at(latency_s)``: every program's ``(instructions/s,
        L2 misses/s, bytes/s)`` at one fixed memory latency, sockets and
        their residents in order, and the total demand (bytes/s).

        The per-socket plan holds what does not depend on latency: each
        program's misses per instruction at half the L2 (shape 1's
        co-runner estimate, which sets the shares) or the whole L2
        (shapes 2 and 3), shape 2's time-slice extra misses, and
        ``spec + write_frac``.  Shape 2's switch cold misses are charged
        as an extra miss rate while running, with their pipeline stalls
        folded into IPS.  A socket's total starts at integer 0 and adds
        its one or two programs left to right.
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

        def rates_at(latency_s: float) -> tuple[list[tuple[float, float, float]], float]:
            latency_cycles = latency_s * frequency_hz
            rates = []
            demand = 0.0
            for programs, curves, duty in plan:
                if curves is not None:
                    # Shape 1: the co-runners' shares at this latency.
                    access_rates = [
                        frequency_hz
                        * (1.0 / (cpi + mpi_half * latency_cycles / mlp))
                        * apki
                        / 1000.0
                        for cpi, mlp, mpi_half, apki, _, _, _ in programs
                    ]
                    _, ratios = solve(access_rates, curves)
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
                    bytes_per_s = misses * CACHE_LINE_BYTES * traffic
                    rates.append((ips, misses, bytes_per_s))
                    total = total + bytes_per_s
                demand += total
            return rates, demand

        return rates_at

    def _solve(
        self,
        sockets: list[SocketLoad],
        frequency_hz: float,
        voltage_v: float,
        cap: float | None,
        slice_s: float,
    ) -> ServerWindowResult:
        """The window at its served operating point (:func:`operating_point`)."""
        effective_peak = self._envelope.peak_bandwidth_bytes_per_s
        if cap is not None:
            effective_peak = min(effective_peak, max(cap, 1.0))
        utilization, latency, scale, (rates, _) = operating_point(
            self._envelope,
            effective_peak,
            self._latency_rates(sockets, frequency_hz, slice_s),
            BISECTION_STEPS,
        )
        residents = [
            (socket, app) for socket, load in enumerate(sockets) for app in load.resident
        ]
        programs = []
        total_read = 0.0
        total_write = 0.0
        total_misses = 0.0
        heating = 0.0
        max_frequency = self._platform.cpu_power.operating_points[0].frequency_hz
        for (socket, app), (ips, misses, bytes_per_s) in zip(residents, rates):
            busy = min(1.0, (ips / frequency_hz) / _PEAK_IPC) if frequency_hz else 0.0
            rate = ProgramRate(
                app_name=app.name,
                socket=socket,
                instructions_per_s=ips * scale,
                l2_misses_per_s=misses * scale,
                bytes_per_s=bytes_per_s * scale,
                utilization=busy * scale,
            )
            programs.append(rate)
            write = rate.bytes_per_s * app.write_frac / (1.0 + app.write_frac)
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
