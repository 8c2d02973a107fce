"""Linux DTM mechanisms of §5.2.1.

Three OS-level actuators, modeled as small state machines with the same
constraints the paper describes:

- :class:`CPUHotplug` — logical core removal via
  ``/sys/devices/system/cpu/cpuN/online``; core 0 can never be disabled.
- :class:`CPUFreq` — the cpufreq ladder of the Xeon 5160 (3.000 / 2.667 /
  2.333 / 2.000 GHz with automatic voltage scaling).
- :class:`TimeSliceModel` — when two programs share one core (ACG with a
  disabled sibling), the scheduler alternates them every base time
  quantum; slices below ~20 ms thrash the 4 MB L2 (Fig. 5.15).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params.power_params import DVFSOperatingPoint, MeasuredProcessorPower, XEON_5160_POWER
from repro.units import CACHE_LINE_BYTES


class CPUHotplug:
    """Logical core enable/disable with the core-0 restriction."""

    def __init__(self, total_cores: int) -> None:
        if total_cores < 1:
            raise ConfigurationError("need at least one core")
        self._online = [True] * total_cores

    @property
    def total_cores(self) -> int:
        """Total core count."""
        return len(self._online)

    def online_cores(self) -> list[int]:
        """Ids of online cores."""
        return [i for i, on in enumerate(self._online) if on]

    def apply_count(self, active: int, sockets: int = 2) -> list[int]:
        """Bring exactly ``active`` cores online, balanced across sockets.

        The Chapter 5 policies retain at least one core per socket to
        keep using its L2 (§5.2.2); this helper disables sibling cores
        symmetrically: 4 -> both siblings on, 3 -> disable one sibling,
        2 -> one core per socket.
        """
        total = len(self._online)
        per_socket = total // sockets
        active = max(sockets, min(total, active))
        plan = [False] * total
        remaining = active
        # First pass: one core per socket (socket-local core index 0).
        for socket in range(sockets):
            plan[socket * per_socket] = True
            remaining -= 1
        # Second pass: add siblings while budget remains.
        for socket in range(sockets):
            for local in range(1, per_socket):
                if remaining <= 0:
                    break
                plan[socket * per_socket + local] = True
                remaining -= 1
        for core in range(total):
            if core == 0:
                continue
            self._online[core] = plan[core]
        self._online[0] = True
        return self.online_cores()

    def reset(self) -> None:
        """All cores online."""
        for index in range(len(self._online)):
            self._online[index] = True


class CPUFreq:
    """The cpufreq governor interface: set a frequency, voltage follows."""

    def __init__(self, model: MeasuredProcessorPower | None = None) -> None:
        self._model = model if model is not None else XEON_5160_POWER
        self._level = 0

    @property
    def points(self) -> tuple[DVFSOperatingPoint, ...]:
        """Available operating points, fastest first."""
        return self._model.operating_points

    @property
    def level(self) -> int:
        """Current ladder position."""
        return self._level

    @property
    def frequency_hz(self) -> float:
        """Current frequency."""
        return self.points[self._level].frequency_hz

    @property
    def voltage_v(self) -> float:
        """Current (automatically scaled) voltage."""
        return self.points[self._level].voltage_v

    def set_level(self, level: int) -> None:
        """Select an operating point by ladder index."""
        if not 0 <= level < len(self.points):
            raise ConfigurationError(f"invalid cpufreq level {level}")
        self._level = level

    def reset(self) -> None:
        """Back to full speed."""
        self._level = 0


class TimeSliceModel:
    """Cache-thrashing surcharge for core-shared execution (Fig. 5.15).

    When two programs alternate on one core every ``slice_s`` seconds,
    each switch forces the incoming program to refill its resident lines.
    The extra miss rate is ``refill_lines / slice`` per second of that
    program's execution; it vanishes for long slices and grows
    hyperbolically for short ones — the paper measures +7.6% misses at
    10 ms and +12% at 5 ms against the 100 ms default.
    """

    def __init__(self, cache_bytes: int) -> None:
        if cache_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self._cache_bytes = cache_bytes

    def extra_misses_per_s(self, slice_s: float, resident_bytes: float) -> float:
        """Extra miss rate caused by switching every ``slice_s`` seconds.

        Args:
            slice_s: the scheduler base time quantum.
            resident_bytes: the working set the program re-fetches after
                each switch (bounded by the cache capacity).
        """
        if slice_s <= 0:
            raise ConfigurationError("time slice must be positive")
        refill_lines = min(resident_bytes, self._cache_bytes) / CACHE_LINE_BYTES
        return refill_lines / slice_s
