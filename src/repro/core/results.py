"""Result containers for two-level simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.codec import Float, ListOf, state_field
from repro.errors import CheckpointError, SimulationError

_COLUMN = ListOf(Float())


@dataclass
class TemperatureTrace:
    """Downsampled temperature time series of one run.

    Its columns are declared for the codec: a checkpoint or a cached
    payload decodes them as lists of finite numbers of one length."""

    times_s: list[float] = state_field(_COLUMN, list)
    amb_c: list[float] = state_field(_COLUMN, list)
    dram_c: list[float] = state_field(_COLUMN, list)
    ambient_c: list[float] = state_field(_COLUMN, list)

    def _state_hook(self, values: dict, path: str) -> dict:
        if len({len(column) for column in values.values()}) > 1:
            raise CheckpointError(f"{path} columns must have equal lengths")
        return values

    def append(self, time_s: float, amb_c: float, dram_c: float, ambient_c: float) -> None:
        """Record one sample."""
        self.times_s.append(time_s)
        self.amb_c.append(amb_c)
        self.dram_c.append(dram_c)
        self.ambient_c.append(ambient_c)

    def __len__(self) -> int:
        return len(self.times_s)

    def max_amb_c(self) -> float:
        """Peak recorded AMB temperature."""
        if not self.amb_c:
            raise SimulationError("empty temperature trace")
        return max(self.amb_c)

    def window(self, start_s: float, end_s: float) -> "TemperatureTrace":
        """Sub-trace within [start_s, end_s)."""
        sub = TemperatureTrace()
        for i, t in enumerate(self.times_s):
            if start_s <= t < end_s:
                sub.append(t, self.amb_c[i], self.dram_c[i], self.ambient_c[i])
        return sub


@dataclass(frozen=True)
class RunResult:
    """Outputs of one two-level simulation run.

    The benchmark harness normalizes these against the no-limit baseline
    to regenerate the paper's figures.
    """

    workload: str
    policy: str
    cooling: str
    #: Simulated wall-clock time to finish the batch job, seconds.
    runtime_s: float
    #: Total memory traffic (read + write bytes).
    traffic_bytes: float
    #: Total L2 cache misses.
    l2_misses: float
    #: Total instructions retired.
    instructions: float
    #: Processor energy, joules.
    cpu_energy_j: float
    #: Memory (FBDIMM) energy, joules.
    memory_energy_j: float
    #: Time-averaged memory inlet (ambient) temperature, degC.
    mean_ambient_c: float
    #: Peak AMB temperature seen, degC.
    peak_amb_c: float
    #: Peak DRAM temperature seen, degC.
    peak_dram_c: float
    #: Fraction of DTM intervals spent at the highest emergency level.
    shutdown_fraction: float
    #: Number of completed batch jobs.
    finished_jobs: int
    #: Temperature trace (downsampled; empty if recording disabled).
    trace: TemperatureTrace = field(default_factory=TemperatureTrace)

    @property
    def average_cpu_power_w(self) -> float:
        """Mean processor power over the run."""
        if self.runtime_s <= 0:
            return 0.0
        return self.cpu_energy_j / self.runtime_s

    @property
    def average_memory_power_w(self) -> float:
        """Mean memory power over the run."""
        if self.runtime_s <= 0:
            return 0.0
        return self.memory_energy_j / self.runtime_s

    def normalized_runtime(self, baseline: "RunResult") -> float:
        """Runtime relative to a baseline run (Fig. 4.3 metric)."""
        if baseline.runtime_s <= 0:
            raise SimulationError("baseline runtime must be positive")
        return self.runtime_s / baseline.runtime_s

    def normalized_traffic(self, baseline: "RunResult") -> float:
        """Memory traffic relative to a baseline run (Fig. 4.4 metric)."""
        if baseline.traffic_bytes <= 0:
            raise SimulationError("baseline traffic must be positive")
        return self.traffic_bytes / baseline.traffic_bytes
