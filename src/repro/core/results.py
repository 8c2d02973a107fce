"""Result containers for two-level simulation runs.

A result's fields are declared for the :mod:`repro.engine.codec` codec,
which writes its cache payload (:func:`~repro.engine.codec.state_dict`,
in declaration order, the trace last) and reads one back
(:func:`~repro.engine.codec.decode_record`): a mistyped, missing or
non-finite field is a :class:`~repro.errors.CheckpointError`, which the
result cache treats as a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.codec import Count, Float, ListOf, Record, Text, domain
from repro.errors import CheckpointError, SimulationError

_COLUMN = ListOf(Float())
#: A name, a non-negative total, a fraction and a job count.
NAME = Text()
TOTAL = Float(0.0)
FRACTION = Float(0.0, 1.0)
JOBS = Count()


@dataclass
class TemperatureTrace:
    """Downsampled temperature time series of one run.

    Its columns are declared for the codec: a checkpoint or a cached
    payload decodes them as lists of finite numbers of one length."""

    times_s: list[float] = domain(_COLUMN, list)
    amb_c: list[float] = domain(_COLUMN, list)
    dram_c: list[float] = domain(_COLUMN, list)
    ambient_c: list[float] = domain(_COLUMN, list)

    @staticmethod
    def _state_hook(values: dict, path: str) -> dict:
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


def trace_field() -> Any:
    """A result's trace field: in every payload, empty when the run
    recorded none."""
    return domain(Record(TemperatureTrace), TemperatureTrace, required=True)


@dataclass(frozen=True)
class RunResult:
    """Outputs of one two-level simulation run.

    The benchmark harness normalizes these against the no-limit baseline
    to regenerate the paper's figures.
    """

    workload: str = domain(NAME)
    policy: str = domain(NAME)
    cooling: str = domain(NAME)
    #: Simulated wall-clock time to finish the batch job, seconds.
    runtime_s: float = domain(TOTAL)
    #: Total memory traffic (read + write bytes).
    traffic_bytes: float = domain(TOTAL)
    #: Total L2 cache misses.
    l2_misses: float = domain(TOTAL)
    #: Total instructions retired.
    instructions: float = domain(TOTAL)
    #: Processor energy, joules.
    cpu_energy_j: float = domain(TOTAL)
    #: Memory (FBDIMM) energy, joules.
    memory_energy_j: float = domain(TOTAL)
    #: Time-averaged memory inlet (ambient) temperature, degC.
    mean_ambient_c: float = domain(Float())
    #: Peak AMB temperature seen, degC.
    peak_amb_c: float = domain(Float())
    #: Peak DRAM temperature seen, degC.
    peak_dram_c: float = domain(Float())
    #: Fraction of DTM intervals spent at the highest emergency level.
    shutdown_fraction: float = domain(FRACTION)
    #: Number of completed batch jobs.
    finished_jobs: int = domain(JOBS)
    #: Temperature trace (downsampled; empty if recording disabled).
    trace: TemperatureTrace = trace_field()

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
