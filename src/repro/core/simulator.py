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

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.kernel import make_memspot
from repro.core.results import RunResult
from repro.core.windowmodel import MemoryEnvelope, WindowModel
from repro.cpu.power import simulated_chip_power_w
from repro.dtm.base import DTMPolicy
from repro.engine.observers import Observer, ProgressObserver, TraceRecorder
from repro.engine.stepping import SteppingEngine, WindowOutcome
from repro.errors import ConfigurationError, SimulationError
from repro.params.emergency import EmergencyLevels, SIMULATION_LEVELS
from repro.params.power_params import ProcessorPowerTable, SIMULATED_CPU_POWER
from repro.params.thermal_params import (
    AmbientModelParams,
    CoolingConfig,
    AOHS_1_5,
    ISOLATED_AMBIENT,
)
from repro.workloads.batch import BatchScheduler
from repro.workloads.mixes import get_mix


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one two-level simulation run.

    Defaults reproduce the Chapter 4 platform: four cores, AOHS_1.5
    cooling, the isolated ambient model, Table 4.3 emergency levels and a
    10 ms DTM interval with 25 us overhead.
    """

    mix_name: str = "W1"
    #: Copies of each application in the batch (the paper uses 50; the
    #: benchmark harness scales this down — shapes are scale-invariant).
    copies: int = 2
    cores: int = 4
    cooling: CoolingConfig = AOHS_1_5
    ambient: AmbientModelParams = ISOLATED_AMBIENT
    levels: EmergencyLevels = SIMULATION_LEVELS
    dtm_interval_s: float = 0.010
    dtm_overhead_s: float = 25e-6
    rotation_interval_s: float = 0.100
    cpu_power: ProcessorPowerTable = SIMULATED_CPU_POWER
    envelope: MemoryEnvelope = field(default_factory=MemoryEnvelope)
    l2_capacity_bytes: float = 4 * 1024 * 1024
    physical_channels: int = 4
    dimms_per_channel: int = 4
    record_trace: bool = True
    trace_resolution_s: float = 1.0
    max_sim_s: float = 500_000.0
    #: Use the cache-aware batch refill policy (§6 future-work extension;
    #: see :mod:`repro.workloads.scheduling`) instead of round-robin.
    cache_aware_scheduling: bool = False
    #: Traffic shape: fraction of each ``duty_period_s`` the cores run.
    #: Below 1.0 the batch executes in bursts separated by idle windows
    #: (the scenario engine's "idle-burst" traffic shapes); 1.0 is the
    #: paper's continuous batch.
    duty_cycle: float = 1.0
    duty_period_s: float = 0.1
    #: Thermal kernel: "batched" (flat-array fast path) or "scalar"
    #: (per-node reference).  Both produce bit-identical results; the
    #: scalar path exists as the equivalence oracle.
    kernel: str = "batched"

    def __post_init__(self) -> None:
        if self.dtm_interval_s <= 0:
            raise ConfigurationError("DTM interval must be positive")
        if self.dtm_overhead_s < 0:
            raise ConfigurationError("DTM overhead must be non-negative")
        if self.dtm_overhead_s >= self.dtm_interval_s:
            raise ConfigurationError("DTM overhead must be below the interval")
        if self.copies < 1:
            raise ConfigurationError("need at least one batch copy")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty cycle must be within (0, 1]")
        if self.duty_period_s <= 0:
            raise ConfigurationError("duty period must be positive")
        if self.duty_cycle < 1.0:
            # Gating is per whole DTM window, so the burst must span at
            # least one window or the batch can never make progress.
            if self.duty_windows_on() < 1 or self.duty_windows_per_period() < 2:
                raise ConfigurationError(
                    "duty cycle on-time must cover at least one DTM interval "
                    f"(duty_cycle={self.duty_cycle}, "
                    f"duty_period_s={self.duty_period_s}, "
                    f"dtm_interval_s={self.dtm_interval_s})"
                )
        if self.kernel not in ("batched", "scalar"):
            raise ConfigurationError(
                f"kernel must be 'batched' or 'scalar', got {self.kernel!r}"
            )

    def duty_windows_per_period(self) -> int:
        """DTM windows per duty period (the burst gate counts windows,
        not float time, so the duty cycle is exact and drift-free)."""
        return max(1, round(self.duty_period_s / self.dtm_interval_s))

    def duty_windows_on(self) -> int:
        """Running windows at the start of each duty period."""
        return round(self.duty_cycle * self.duty_windows_per_period())


class Chapter4Strategy:
    """One Chapter 4 (workload, policy) run as an engine strategy.

    Construction resets the policy and builds a fresh scheduler and
    MEMSpot — a strategy instance is one run.  The per-window sequence
    and every accumulation order match the pre-engine inlined loop, so
    engine-hosted results are byte-identical to the historical ones.
    """

    kind = "ch4"

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

            self._scheduler: BatchScheduler = CacheAwareScheduler(
                mix, cfg.copies, cfg.cores,
                cache_capacity_bytes=cfg.l2_capacity_bytes,
            )
        else:
            self._scheduler = BatchScheduler(mix, cfg.copies, cfg.cores)
        self.memspot = make_memspot(
            kernel=cfg.kernel,
            cooling=cfg.cooling,
            ambient=cfg.ambient,
            physical_channels=cfg.physical_channels,
            dimms_per_channel=cfg.dimms_per_channel,
        )
        self.dt_s = cfg.dtm_interval_s
        self._points = cfg.cpu_power.operating_points
        self._stopped_level = len(self._points)
        self._max_frequency = self._points[0].frequency_hz
        self._overhead_factor = 1.0 - cfg.dtm_overhead_s / self.dt_s
        self._top_level = cfg.levels.level_count - 1
        self._burst_gated = cfg.duty_cycle < 1.0
        self._duty_windows = cfg.duty_windows_per_period()
        self._duty_on = cfg.duty_windows_on()
        self._rotation = 0
        self._since_rotation_s = 0.0
        self._total_intervals = 0
        self._shutdown_intervals = 0
        # Steady-state window cache (see window).  Valid only for the
        # plain round-robin scheduler, whose slot assignment changes
        # exactly when finished_jobs does; subclass refill rules may
        # reassign without finishing a job, so they get no cache and
        # every window computes its entry afresh.
        self._window_cache: dict | None = (
            {} if type(self._scheduler) is BatchScheduler else None
        )
        self._cache_epoch = -1
        self._cache_occupied: list[int] = []
        self.trace_recorder = TraceRecorder(
            resolution_s=cfg.trace_resolution_s, enabled=cfg.record_trace
        )

    def default_observers(self) -> tuple[Observer, ...]:
        """The observers every Chapter 4 engine carries."""
        return (self.trace_recorder, ProgressObserver())

    # -- engine protocol ---------------------------------------------------

    def done(self, engine: SteppingEngine) -> bool:
        return self._scheduler.done

    def max_sim_horizon(self) -> float | None:
        return self._config.max_sim_s

    def timeout_error(self, engine: SteppingEngine) -> SimulationError:
        return SimulationError(
            f"batch did not finish within {self._config.max_sim_s} "
            f"simulated seconds ({self._scheduler.finished_jobs}/"
            f"{self._scheduler.total_jobs} jobs done)"
        )

    def window(self, engine: SteppingEngine) -> WindowOutcome:
        """One DTM window: decide on the last sample, then run it.

        The policy reads ``engine.sample`` — the previous window's
        MEMSpot sample, whose ``amb_c``/``dram_c`` are the sensor
        reading — through :meth:`DTMPolicy.decide`.

        Between job completions the scheduler's slot assignment is
        frozen, so everything after the decision — slot selection,
        level-1 evaluation, per-slot products, chip power — is a pure
        function of (decision, burst phase, rotation offset).  Those
        products are cached per assignment epoch (the number of
        finished jobs); a hit replays the cached per-slot additions in
        their original order, so every engine/scheduler mutation
        applies exactly the bits a fresh computation would.  Without a
        cache (a subclassed scheduler) the entry is computed from fresh
        ``occupied_slots()`` every window and not stored.
        """
        dt = self.dt_s
        decision = self._policy.decide(engine.sample, dt)
        scheduler = self._scheduler
        self._total_intervals += 1
        if not decision.memory_on or decision.emergency_level >= self._top_level:
            self._shutdown_intervals += 1
        self._since_rotation_s += dt
        if self._since_rotation_s >= self._config.rotation_interval_s:
            self._since_rotation_s = 0.0
            self._rotation += 1
        burst_idle = (
            self._burst_gated
            and (self._total_intervals - 1) % self._duty_windows >= self._duty_on
        )
        cache = self._window_cache
        if cache is None:
            entry = self._window_entry(
                decision, burst_idle, scheduler.occupied_slots()
            )
        else:
            epoch = scheduler.finished_jobs
            if epoch != self._cache_epoch:
                cache.clear()
                self._cache_epoch = epoch
                self._cache_occupied = scheduler.occupied_slots()
            occupied = self._cache_occupied
            key = (
                decision,
                burst_idle,
                self._rotation % len(occupied) if occupied else 0,
            )
            entry = cache.get(key)
            if entry is None:
                entry = cache[key] = self._window_entry(
                    decision, burst_idle, occupied
                )
        outcome, progress, slot_adds, traffic_delta, l2_delta = entry
        if progress is not None:
            for advanced in slot_adds:
                engine.instructions += advanced
            scheduler.advance(progress)
            engine.traffic_bytes += traffic_delta
            engine.l2_misses += l2_delta
        return outcome

    def _window_entry(
        self, decision: Any, burst_idle: bool, occupied: list[int]
    ) -> tuple:
        """One window-cache entry: the pure products of the post-decide
        body, ``(outcome, progress, slot_adds, traffic_delta, l2_delta)``
        with ``progress`` None when no slot runs."""
        cfg = self._config
        dt = self.dt_s
        scheduler = self._scheduler
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
                offset = self._rotation % len(occupied)
                rotated = occupied[offset:] + occupied[:offset]
                active_slots = sorted(rotated[: decision.active_cores])
        heating_sum = 0.0
        read_bps = 0.0
        write_bps = 0.0
        progress: dict[int, float] | None = None
        slot_adds: tuple[float, ...] = ()
        traffic_delta = 0.0
        l2_delta = 0.0
        if active_slots:
            slot_apps = scheduler.running_apps(active_slots)
            ordered_slots = list(slot_apps)
            result = self._window.evaluate(
                [slot_apps[slot] for slot in ordered_slots],
                frequency_hz=frequency,
                bandwidth_cap_bytes_per_s=decision.bandwidth_cap_bytes_per_s,
                memory_on=True,
            )
            progress = {}
            adds = []
            for slot, slot_result in zip(ordered_slots, result.slots):
                advanced = (
                    slot_result.instructions_per_s * dt * self._overhead_factor
                )
                progress[slot] = advanced
                adds.append(advanced)
                heating_sum += (
                    voltage * slot_result.instructions_per_s / self._max_frequency
                )
            slot_adds = tuple(adds)
            read_bps = result.read_bytes_per_s
            write_bps = result.write_bytes_per_s
            traffic_delta = result.total_bytes_per_s * dt
            l2_delta = result.l2_misses_per_s * dt
        cpu_power = simulated_chip_power_w(
            active_cores=len(active_slots),
            dvfs_level=min(decision.dvfs_level, self._stopped_level),
            memory_on=decision.memory_on,
            table=cfg.cpu_power,
        )
        outcome = WindowOutcome(
            read_bytes_per_s=read_bps,
            write_bytes_per_s=write_bps,
            heating_sum=heating_sum,
            cpu_power_w=cpu_power,
        )
        return (outcome, progress, slot_adds, traffic_delta, l2_delta)

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
            finished_jobs=self._scheduler.finished_jobs,
            trace=self.trace_recorder.trace,
        )

    def progress(self, engine: SteppingEngine) -> dict[str, Any]:
        return {
            "finished_jobs": self._scheduler.finished_jobs,
            "total_jobs": self._scheduler.total_jobs,
        }

    def state_dict(self) -> dict[str, Any]:
        return {
            "scheduler": self._scheduler.state_dict(),
            "policy": self._policy.state_dict(),
            "rotation": self._rotation,
            "since_rotation_s": self._since_rotation_s,
            "total_intervals": self._total_intervals,
            "shutdown_intervals": self._shutdown_intervals,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        # A restore moves the scheduler to an arbitrary point; the
        # steady-state window cache is stale even if finished_jobs
        # happens to match.
        if self._window_cache is not None:
            self._window_cache.clear()
        self._cache_epoch = -1
        self._scheduler.load_state_dict(state["scheduler"])
        self._policy.load_state_dict(state.get("policy", {}))
        self._rotation = int(state.get("rotation", 0))
        self._since_rotation_s = float(state.get("since_rotation_s", 0.0))
        self._total_intervals = int(state.get("total_intervals", 0))
        self._shutdown_intervals = int(state.get("shutdown_intervals", 0))


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
        self._window = window_model or WindowModel(
            l2_capacity_bytes=config.l2_capacity_bytes,
            max_frequency_hz=config.cpu_power.operating_points[0].frequency_hz,
            envelope=config.envelope,
        )

    @property
    def config(self) -> SimulationConfig:
        """The run configuration."""
        return self._config

    @property
    def window_model(self) -> WindowModel:
        """The level-1 model (shared across runs for memoization)."""
        return self._window

    def engine(
        self, extra_observers: tuple[Observer, ...] = ()
    ) -> SteppingEngine:
        """A fresh stepping engine for one run of this configuration.

        The engine carries the strategy's default observers (trace
        recorder, progress emitter) plus ``extra_observers`` — pass a
        :class:`~repro.engine.CheckpointObserver` for resumable runs.
        A restored engine must be built with the same extras, in the
        same order, as the one that wrote the checkpoint.
        """
        strategy = Chapter4Strategy(self._config, self._policy, self._window)
        return SteppingEngine(
            strategy,
            observers=(*strategy.default_observers(), *extra_observers),
        )

    def run(self) -> RunResult:
        """Simulate the batch job to completion."""
        return self.engine().run_to_completion()
