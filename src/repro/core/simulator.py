"""The two-level thermal simulator (Fig. 4.1), hosted on the engine.

:class:`TwoLevelSimulator` wires together:

- the batch-job scheduler (§4.3.2): N copies of each mix application,
  refilled round-robin as jobs finish;
- the level-1 window model: performance and memory throughput of the
  currently-running applications under the current DTM control state;
- MEMSpot (level 2): power and temperatures from that throughput;
- the DTM policy: temperatures in, actuator state out, every DTM
  interval (10 ms by default, Table 4.1), with a 25 us control overhead
  charged per interval;
- energy accounting for the processor (Table 4.4) and the FBDIMM.

Since the engine refactor the run loop itself lives in
:class:`repro.engine.SteppingEngine`; this module supplies
:class:`Chapter4Strategy` — the per-window decision/evaluation/advance
and the :class:`~repro.core.results.RunResult` assembly.  One
:meth:`TwoLevelSimulator.run` call still simulates the full batch to
completion, but :meth:`TwoLevelSimulator.engine` exposes the stepping
surface underneath: checkpoint/resume, observers, and time-sliced
execution all come for free and are bit-identical to a straight run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernel import BatchedMemSpot
from repro.core.results import RunResult
from repro.core.windowmodel import MemoryEnvelope, WindowModel
from repro.cpu.power import simulated_chip_power_w
from repro.dtm.base import CORES, DTMPolicy
from repro.engine.codec import (
    Count,
    Field,
    Flag,
    Float,
    Instance,
    Nested,
    check_domain,
    domain,
)
from repro.engine.observers import TraceRecorder
from repro.engine.stepping import SteppingEngine, WindowOutcome
from repro.errors import CheckpointError, ConfigurationError
from repro.params.emergency import SIMULATION_LEVELS
from repro.params.power_params import SIMULATED_CPU_POWER
from repro.params.thermal_params import (
    AmbientModelParams,
    CoolingConfig,
    AOHS_1_5,
    ISOLATED_AMBIENT,
)
from repro.workloads.batch import BatchScheduler
from repro.workloads.mixes import MIX, get_mix


#: A time, rate or size the model divides by: finite and above zero.
POSITIVE = Float(0.0, strict=True)
#: The fraction of each duty period the cores run.
DUTY_CYCLE = Float(0.0, 1.0, strict=True)
#: DTM control overhead per interval, seconds (Table 4.1: 25 us).
DTM_OVERHEAD_S = 25e-6
#: Temperature trace sample period, simulated seconds.
TRACE_RESOLUTION_S = 1.0


def duty_windows(
    duty_cycle: float, duty_period_s: float, dtm_interval_s: float
) -> tuple[int, int]:
    """(running windows, DTM windows) per duty period.

    The burst gate counts windows, not float time, so the duty cycle is
    exact and drift-free.  Gating is per whole window, so a burst must
    span at least one window or the batch never makes progress."""
    per_period = max(1, round(duty_period_s / dtm_interval_s))
    on = round(duty_cycle * per_period)
    if duty_cycle < 1.0 and (on < 1 or per_period < 2):
        raise ConfigurationError(
            "duty cycle on-time must cover at least one DTM interval "
            f"(duty_cycle={duty_cycle}, duty_period_s={duty_period_s}, "
            f"dtm_interval_s={dtm_interval_s})"
        )
    return on, per_period


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one two-level simulation run: the axes Chapter 4
    varies (mix, cooling, ambient model, DTM interval, platform shape,
    traffic shape).

    Defaults reproduce the Chapter 4 platform: AOHS_1.5 cooling, the
    isolated ambient model and a 10 ms DTM interval.  What the paper
    holds fixed is a module constant, not a field: the Table 4.1 cores
    and L2 (:data:`CORES`,
    :data:`repro.core.windowmodel.L2_CAPACITY_BYTES`) and 25 us DTM
    overhead (:data:`DTM_OVERHEAD_S`), the Table 4.3 emergency levels
    (``SIMULATION_LEVELS``), the Table 4.4 CPU power table
    (``SIMULATED_CPU_POWER``), the 1 s trace resolution and the
    engine's runaway horizon (:data:`repro.engine.stepping.MAX_SIM_S`).
    Every run steps the batched thermal kernel
    (:class:`~repro.core.kernel.BatchedMemSpot`); the per-node
    :class:`~repro.core.memspot.MemSpot` is the tests' oracle, not a
    configuration choice.
    """

    mix_name: str = domain(MIX, "W1")
    #: Copies of each application in the batch (the paper uses 50; the
    #: benchmark harness scales this down — shapes are scale-invariant).
    copies: int = domain(Count(minimum=1), 2)
    cooling: CoolingConfig = domain(Instance(CoolingConfig), AOHS_1_5)
    ambient: AmbientModelParams = domain(
        Instance(AmbientModelParams), ISOLATED_AMBIENT
    )
    #: DTM interval, seconds; above the per-interval control overhead.
    dtm_interval_s: float = domain(Float(DTM_OVERHEAD_S, strict=True), 0.010)
    rotation_interval_s: float = domain(POSITIVE, 0.100)
    envelope: MemoryEnvelope = domain(Instance(MemoryEnvelope), MemoryEnvelope)
    physical_channels: int = domain(Count(minimum=1), 4)
    dimms_per_channel: int = domain(Count(minimum=1), 4)
    record_trace: bool = domain(Flag(), True)
    #: Use the cache-aware batch refill policy (§6 future-work extension;
    #: see :mod:`repro.workloads.scheduling`) instead of round-robin.
    cache_aware_scheduling: bool = domain(Flag(), False)
    #: Traffic shape: fraction of each ``duty_period_s`` the cores run.
    #: Below 1.0 the batch executes in bursts separated by idle windows
    #: (the scenario library's "idle-burst" traffic shapes); 1.0 is the
    #: paper's continuous batch.
    duty_cycle: float = domain(DUTY_CYCLE, 1.0)
    duty_period_s: float = domain(POSITIVE, 0.1)

    def __post_init__(self) -> None:
        check_domain(self)
        duty_windows(self.duty_cycle, self.duty_period_s, self.dtm_interval_s)


class Chapter4Strategy:
    """One Chapter 4 (workload, policy) run as an engine strategy.

    Construction resets the policy and builds a fresh scheduler and
    MEMSpot — a strategy instance is one run.  The per-window sequence
    and every accumulation order match the pre-engine inlined loop, so
    engine-hosted results are byte-identical to the historical ones.
    """

    kind = "ch4"
    STATE_FIELDS = (
        Field("scheduler", "scheduler", Nested()),
        Field("policy", "_policy", Nested(), {}),
        Field("rotation", "_rotation", Count(), 0),
        Field("since_rotation_s", "_since_rotation_s", Float(0.0), 0.0),
        Field("total_intervals", "_total_intervals", Count(), 0),
        Field("shutdown_intervals", "_shutdown_intervals", Count(), 0),
    )

    def __init__(
        self,
        config: SimulationConfig,
        policy: DTMPolicy,
        window_model: WindowModel,
    ) -> None:
        cfg = config
        self._config = cfg
        self._policy = policy
        self._window = window_model
        policy.reset()
        mix = get_mix(cfg.mix_name)
        if cfg.cache_aware_scheduling:
            from repro.workloads.scheduling import CacheAwareScheduler

            self.scheduler: BatchScheduler = CacheAwareScheduler(mix, cfg.copies, CORES)
        else:
            self.scheduler = BatchScheduler(mix, cfg.copies, CORES)
        self.memspot = BatchedMemSpot(
            cooling=cfg.cooling,
            ambient=cfg.ambient,
            physical_channels=cfg.physical_channels,
            dimms_per_channel=cfg.dimms_per_channel,
        )
        self.dt_s = cfg.dtm_interval_s
        self._points = SIMULATED_CPU_POWER.operating_points
        self._stopped_level = len(self._points)
        self._max_frequency = self._points[0].frequency_hz
        self._overhead_factor = 1.0 - DTM_OVERHEAD_S / self.dt_s
        self._rotation_interval_s = cfg.rotation_interval_s
        self._top_level = SIMULATION_LEVELS.level_count - 1
        self._burst_gated = cfg.duty_cycle < 1.0
        self._duty_on, self._duty_windows = duty_windows(
            cfg.duty_cycle, cfg.duty_period_s, cfg.dtm_interval_s
        )
        self._rotation = 0
        self._since_rotation_s = 0.0
        self._total_intervals = 0
        self._shutdown_intervals = 0
        # The occupied slots and their count (see `done`), and the
        # current window's decision, for `window_outcome`.
        self._occupied: list[int] = []
        self._occupied_count = 0
        self._decision = None
        self.trace_recorder = TraceRecorder(
            resolution_s=TRACE_RESOLUTION_S, enabled=cfg.record_trace
        )

    # -- engine protocol ---------------------------------------------------

    def done(self, engine: SteppingEngine) -> bool:
        """Whether the batch is done.  Also retakes the occupied slots:
        the engine asks whenever they can have moved (a job finished)."""
        self._occupied = self.scheduler.occupied_slots()
        self._occupied_count = len(self._occupied)
        return self.scheduler.done

    def window(self, engine: SteppingEngine) -> tuple:
        """One DTM window's decision, on the last sample.

        The policy reads ``engine.sample`` — the previous window's
        MEMSpot sample, whose ``amb_c``/``dram_c`` are the sensor
        reading — through :meth:`DTMPolicy.decide`.  The rotation,
        shutdown and burst counters advance here, once per window.

        The rest of the window is a pure function of the returned key,
        ``(decision index, burst_idle, rotation offset)``, while the
        occupied slots stand (see :meth:`done`): a policy numbers its
        decisions, so the key holds only ints.
        """
        dt = self.dt_s
        decision = self._decision = self._policy.decide(engine.sample, dt)
        self._total_intervals += 1
        if not decision.memory_on or decision.emergency_level >= self._top_level:
            self._shutdown_intervals += 1
        self._since_rotation_s += dt
        if self._since_rotation_s >= self._rotation_interval_s:
            self._since_rotation_s = 0.0
            self._rotation += 1
        burst_idle = (
            self._burst_gated
            and (self._total_intervals - 1) % self._duty_windows >= self._duty_on
        )
        occupied = self._occupied_count
        return (
            decision.index,
            burst_idle,
            self._rotation % occupied if occupied else 0,
        )

    def window_outcome(self, key: tuple) -> WindowOutcome:
        """The window after its decision: slot selection, level-1
        evaluation, per-slot progress, chip power and the thermal load
        (Eq. 3.2 power and stable-point terms)."""
        _, burst_idle, offset = key
        decision = self._decision
        dt = self.dt_s
        occupied = self._occupied
        if decision.dvfs_level >= self._stopped_level:
            frequency = 0.0
            voltage = 0.0
        else:
            frequency = self._points[decision.dvfs_level].frequency_hz
            voltage = self._points[decision.dvfs_level].voltage_v
        active_slots: list[int] = []
        if (
            not burst_idle
            and decision.memory_on
            and frequency > 0.0
            and decision.active_cores > 0
        ):
            if decision.active_cores >= len(occupied):
                active_slots = occupied
            else:
                rotated = occupied[offset:] + occupied[:offset]
                active_slots = sorted(rotated[: decision.active_cores])
        cpu_power = simulated_chip_power_w(
            active_cores=len(active_slots),
            dvfs_level=min(decision.dvfs_level, self._stopped_level),
            memory_on=decision.memory_on,
        )
        if not active_slots:
            return WindowOutcome(self.memspot.load(0.0, 0.0, 0.0), cpu_power)
        slot_apps = self.scheduler.running_apps(active_slots)
        ordered_slots = list(slot_apps)
        result = self._window.evaluate(
            [slot_apps[slot] for slot in ordered_slots],
            frequency_hz=frequency,
            bandwidth_cap_bytes_per_s=decision.bandwidth_cap_bytes_per_s,
            memory_on=True,
        )
        progress = {}
        heating_sum = 0.0
        for slot, slot_result in zip(ordered_slots, result.slots):
            progress[slot] = (
                slot_result.instructions_per_s * dt * self._overhead_factor
            )
            heating_sum += (
                voltage * slot_result.instructions_per_s / self._max_frequency
            )
        return WindowOutcome(
            load=self.memspot.load(
                result.read_bytes_per_s, result.write_bytes_per_s, heating_sum
            ),
            cpu_power_w=cpu_power,
            progress=progress,
            traffic_bytes=result.total_bytes_per_s * dt,
            l2_misses=result.l2_misses_per_s * dt,
        )

    def finalize(self, engine: SteppingEngine) -> RunResult:
        cfg = self._config
        now = engine.now_s
        return RunResult(
            workload=cfg.mix_name,
            policy=self._policy.name,
            cooling=cfg.cooling.name,
            runtime_s=now,
            traffic_bytes=engine.traffic_bytes,
            l2_misses=engine.l2_misses,
            instructions=engine.instructions,
            cpu_energy_j=engine.cpu_energy_j,
            memory_energy_j=engine.memory_energy_j,
            mean_ambient_c=engine.ambient_integral / now if now > 0 else 0.0,
            peak_amb_c=engine.peak_amb_c,
            peak_dram_c=engine.peak_dram_c,
            shutdown_fraction=(
                self._shutdown_intervals / max(1, self._total_intervals)
            ),
            finished_jobs=self.scheduler.finished_jobs,
            trace=self.trace_recorder.trace,
        )

    def _state_hook(self, values: dict, path: str) -> dict:
        total = values["_total_intervals"]
        if values["_shutdown_intervals"] > total:
            raise CheckpointError(
                f"{path}.shutdown_intervals must be <= total_intervals "
                f"({total}), got {values['_shutdown_intervals']!r}"
            )
        return values


class TwoLevelSimulator:
    """Runs one (workload, policy) pair to batch completion."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: DTMPolicy,
        window_model: WindowModel | None = None,
    ) -> None:
        self._config = config
        self._policy = policy
        self._mix = get_mix(config.mix_name)
        self._window = window_model or WindowModel(envelope=config.envelope)

    @property
    def config(self) -> SimulationConfig:
        """The run configuration."""
        return self._config

    def engine(self) -> SteppingEngine:
        """A fresh stepping engine for one run of this configuration."""
        return SteppingEngine(
            Chapter4Strategy(self._config, self._policy, self._window)
        )

    def run(self) -> RunResult:
        """Simulate the batch job to completion."""
        return self.engine().run_to_completion()
