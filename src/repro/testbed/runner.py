"""Measurement-style experiment runner for the Chapter 5 servers.

:class:`ServerSimulator` plays the role of the paper's experimental
methodology (§5.3): it runs a multiprogramming batch job on a modeled
server under one DTM policy, polling the AMB sensors once per second,
applying the policy's decision through the Linux mechanisms (hotplug,
cpufreq, chipset throttle), and logging performance counters, power and
temperatures — producing everything Figs. 5.4–5.15 need.

Since the engine refactor the measurement loop is hosted on
:class:`repro.engine.SteppingEngine`: :class:`ServerStrategy` supplies
the per-second mechanism application and performance evaluation, the
engine supplies stepping, checkpoint/resume and observers, and the
results stay byte-identical to the historical inlined loop.

:func:`run_homogeneous` reproduces the §5.4.1 warm-up experiments: four
copies of one program from idle-stable temperature, with the chipset
safety throttle arming near the TDP (Fig. 5.4 / Fig. 5.5) — also an
engine strategy (:class:`HomogeneousStrategy`), with the daughter-card
sensor logging attached as an observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.kernel import make_memspot
from repro.core.results import TemperatureTrace
from repro.cpu.power import measured_chip_power_w
from repro.dtm.base import DTMPolicy
from repro.engine.observers import Observer, ProgressObserver, TraceRecorder
from repro.engine.stepping import SteppingEngine, WindowOutcome
from repro.errors import ConfigurationError, SimulationError
from repro.testbed.chipset import OpenLoopThrottle
from repro.testbed.daughtercard import DaughterCard
from repro.testbed.linux import CPUFreq, CPUHotplug
from repro.testbed.performance import ServerWindowModel, SocketLoad
from repro.testbed.platforms import ServerPlatform
from repro.workloads.batch import BatchScheduler
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import AppProfile, get_app


#: Per-core V*IPC-equivalent heat of a running-but-stalled core (spin
#: power), folded into the Eq. 3.6 sum alongside committed-work heat.
_SPIN_HEAT = 0.20


@dataclass(frozen=True)
class ServerRunResult:
    """Outputs of one server experiment."""

    platform: str
    workload: str
    policy: str
    runtime_s: float
    traffic_bytes: float
    l2_misses: float
    instructions: float
    cpu_energy_j: float
    memory_energy_j: float
    #: Time-averaged memory inlet (CPU exhaust) temperature, degC.
    mean_inlet_c: float
    peak_amb_c: float
    finished_jobs: int
    trace: TemperatureTrace = field(default_factory=TemperatureTrace)

    @property
    def average_cpu_power_w(self) -> float:
        """Mean processor power over the run."""
        if self.runtime_s <= 0:
            return 0.0
        return self.cpu_energy_j / self.runtime_s

    def normalized_runtime(self, baseline: "ServerRunResult") -> float:
        """Runtime relative to a baseline (Fig. 5.6 metric)."""
        if baseline.runtime_s <= 0:
            raise SimulationError("baseline runtime must be positive")
        return self.runtime_s / baseline.runtime_s

    def normalized_misses(self, baseline: "ServerRunResult") -> float:
        """L2 misses relative to a baseline (Fig. 5.8 metric)."""
        if baseline.l2_misses <= 0:
            raise SimulationError("baseline misses must be positive")
        return self.l2_misses / baseline.l2_misses


class ServerStrategy:
    """One Chapter 5 (platform, workload, policy) measurement as an
    engine strategy.

    The Linux/chipset mechanism objects (hotplug, cpufreq, throttle)
    are fully re-programmed from the policy decision at the top of
    every window, so they carry no cross-window state and stay out of
    the checkpoint.
    """

    kind = "ch5"

    def __init__(
        self,
        platform: ServerPlatform,
        policy: DTMPolicy,
        mix_name: str,
        copies: int,
        time_slice_s: float | None,
        ambient_override_c: float | None,
        window_model: ServerWindowModel,
        base_frequency_level: int,
        max_sim_s: float,
        kernel: str,
    ) -> None:
        self._platform = platform
        self._policy = policy
        self._window = window_model
        self._time_slice_s = time_slice_s
        self._base_frequency_level = base_frequency_level
        self._max_sim_s = max_sim_s
        policy.reset()
        self._mix = get_mix(mix_name)
        self._scheduler = BatchScheduler(self._mix, copies, platform.total_cores)
        self._hotplug = CPUHotplug(platform.total_cores)
        self._cpufreq = CPUFreq(platform.cpu_power)
        self._throttle = OpenLoopThrottle()
        self.memspot = make_memspot(
            kernel=kernel,
            cooling=platform.cooling,
            ambient=platform.ambient_params(ambient_override_c),
            physical_channels=platform.channels,
            dimms_per_channel=platform.dimms_per_channel,
        )
        self.dt_s = platform.dtm_interval_s
        self._top_level = platform.levels.level_count - 1
        self._safety_cap = platform.levels.bw_caps_bytes_per_s[-1]
        self.trace_recorder = TraceRecorder(resolution_s=None)

    def default_observers(self) -> tuple[Observer, ...]:
        """The observers every Chapter 5 engine carries."""
        return (self.trace_recorder, ProgressObserver())

    # -- engine protocol ---------------------------------------------------

    def done(self, engine: SteppingEngine) -> bool:
        return self._scheduler.done

    def max_sim_horizon(self) -> float | None:
        return self._max_sim_s

    def timeout_error(self, engine: SteppingEngine) -> SimulationError:
        return SimulationError(
            f"server batch did not finish within {self._max_sim_s} s "
            f"({self._scheduler.finished_jobs}/"
            f"{self._scheduler.total_jobs} jobs)"
        )

    def window(self, engine: SteppingEngine) -> WindowOutcome:
        platform = self._platform
        scheduler = self._scheduler
        hotplug = self._hotplug
        cpufreq = self._cpufreq
        throttle = self._throttle
        dt = self.dt_s
        # The previous window's sample carries the sensor reading.
        decision = self._policy.decide(engine.sample, dt)

        # Apply the decision through the Linux/chipset mechanisms.
        active = max(2, decision.active_cores) if decision.active_cores else 2
        online = hotplug.apply_count(active, sockets=platform.sockets)
        # A non-zero base level pins BW/ACG to a lower processor
        # speed (the Fig. 5.13 sensitivity experiment).
        level = max(
            self._base_frequency_level,
            min(decision.dvfs_level, len(cpufreq.points) - 1),
        )
        cpufreq.set_level(level)
        cap = decision.bandwidth_cap_bytes_per_s
        if decision.emergency_level >= self._top_level and self._safety_cap is not None:
            cap = self._safety_cap if cap is None else min(cap, self._safety_cap)
        throttle.program_bandwidth(cap)

        loads, slot_groups = self._build_loads(scheduler, hotplug, online)
        heating = 0.0
        read_bps = 0.0
        write_bps = 0.0
        if loads:
            result = self._window.evaluate(
                loads,
                frequency_hz=cpufreq.frequency_hz,
                voltage_v=cpufreq.voltage_v,
                bandwidth_cap_bytes_per_s=throttle.bandwidth_cap_bytes_per_s(),
                time_slice_s=self._time_slice_s,
            )
            progress: dict[int, float] = {}
            index = 0
            utilizations: list[float] = []
            for load, slots in zip(loads, slot_groups):
                socket_utils = []
                for slot in slots:
                    rate = result.programs[index]
                    advanced = rate.instructions_per_s * dt
                    progress[slot] = advanced
                    engine.instructions += advanced
                    socket_utils.append(rate.utilization)
                    index += 1
                if load.active_cores >= 2:
                    utilizations.extend(socket_utils[:2])
                else:
                    utilizations.append(min(1.0, sum(socket_utils)))
            scheduler.advance(progress)
            # Eq. 3.6 heating plus a spin term: stalled-but-running
            # cores still draw dynamic power (why the measured inlet
            # is hottest under DTM-BW, Fig. 5.9), scaling with V and f.
            top_hz = platform.cpu_power.operating_points[0].frequency_hz
            spin = (
                _SPIN_HEAT
                * cpufreq.voltage_v
                * (cpufreq.frequency_hz / top_hz)
                * len(online)
            )
            heating = result.heating_sum + spin
            read_bps = result.read_bytes_per_s
            write_bps = result.write_bytes_per_s
            engine.traffic_bytes += result.total_bytes_per_s * dt
            engine.l2_misses += result.l2_misses_per_s * dt
        else:
            utilizations = []

        cpu_power = measured_chip_power_w(
            utilizations, cpufreq.level, platform.cpu_power
        )
        return WindowOutcome(
            read_bytes_per_s=read_bps,
            write_bytes_per_s=write_bps,
            heating_sum=heating,
            cpu_power_w=cpu_power,
        )

    def finalize(self, engine: SteppingEngine) -> ServerRunResult:
        now = engine.now_s
        return ServerRunResult(
            platform=self._platform.name,
            workload=self._mix.name,
            policy=self._policy.name,
            runtime_s=now,
            traffic_bytes=engine.traffic_bytes,
            l2_misses=engine.l2_misses,
            instructions=engine.instructions,
            cpu_energy_j=engine.cpu_energy_j,
            memory_energy_j=engine.memory_energy_j,
            mean_inlet_c=engine.ambient_integral / now if now > 0 else 0.0,
            peak_amb_c=engine.peak_amb_c,
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
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self._scheduler.load_state_dict(state["scheduler"])
        self._policy.load_state_dict(state.get("policy", {}))

    def _build_loads(
        self,
        scheduler: BatchScheduler,
        hotplug: CPUHotplug,
        online: list[int],
    ) -> tuple[list[SocketLoad], list[list[int]]]:
        """Socket loads + the slot ids behind each load's programs."""
        platform = self._platform
        per_socket = platform.cores_per_socket
        loads: list[SocketLoad] = []
        slot_groups: list[list[int]] = []
        online_set = set(online)
        for socket in range(platform.sockets):
            slots = [socket * per_socket + local for local in range(per_socket)]
            occupied = [s for s in slots if scheduler.job_at(s) is not None]
            if not occupied:
                continue
            active = sum(1 for s in slots if s in online_set)
            if active == 0:
                continue
            resident = tuple(scheduler.job_at(s).app for s in occupied)  # type: ignore[union-attr]
            loads.append(
                SocketLoad(resident=resident, active_cores=min(active, len(slots)))
            )
            slot_groups.append(occupied)
        return loads, slot_groups


class ServerSimulator:
    """Runs one (platform, workload, policy) measurement to completion."""

    def __init__(
        self,
        platform: ServerPlatform,
        policy: DTMPolicy,
        mix_name: str,
        copies: int = 2,
        time_slice_s: float | None = None,
        ambient_override_c: float | None = None,
        window_model: ServerWindowModel | None = None,
        base_frequency_level: int = 0,
        max_sim_s: float = 500_000.0,
        kernel: str = "batched",
    ) -> None:
        if copies < 1:
            raise ConfigurationError("need at least one batch copy")
        self._platform = platform
        self._policy = policy
        self._mix = get_mix(mix_name)
        self._copies = copies
        self._time_slice_s = time_slice_s
        self._ambient_override_c = ambient_override_c
        self._window = window_model or ServerWindowModel(platform)
        self._base_frequency_level = base_frequency_level
        self._max_sim_s = max_sim_s
        self._kernel = kernel

    @property
    def window_model(self) -> ServerWindowModel:
        """The socket-aware performance model (shared for memoization)."""
        return self._window

    def engine(
        self, extra_observers: tuple[Observer, ...] = ()
    ) -> SteppingEngine:
        """A fresh stepping engine for one run of this measurement.

        Same contract as :meth:`TwoLevelSimulator.engine`: default
        observers (trace recorder, progress emitter) plus the caller's
        extras; restores require the same observer line-up.
        """
        strategy = ServerStrategy(
            self._platform,
            self._policy,
            self._mix.name,
            self._copies,
            self._time_slice_s,
            self._ambient_override_c,
            self._window,
            self._base_frequency_level,
            self._max_sim_s,
            self._kernel,
        )
        return SteppingEngine(
            strategy,
            observers=(*strategy.default_observers(), *extra_observers),
        )

    def run(self) -> ServerRunResult:
        """Execute the batch job under the policy."""
        return self.engine().run_to_completion()


class DaughterCardObserver(Observer):
    """Logs each window's AMB/inlet temperatures to a daughter card.

    The card's noisy channels draw from their own RNG, which is not
    part of the engine checkpoint — §5.4.1 warm-up runs are short and
    never resumed, and the model-truth trace stays exact either way.
    """

    def __init__(self, card: DaughterCard) -> None:
        self.card = card

    def on_window(self, engine: SteppingEngine) -> None:
        sample = engine.sample
        self.card.sample(
            engine.now_s, {"amb": sample.amb_c, "inlet": sample.ambient_c}
        )


class HomogeneousStrategy:
    """The §5.4.1 warm-up experiment as an engine strategy.

    No DTM policy and no batch scheduler: four copies of one program
    run for a fixed duration while the chipset open-loop throttle arms
    above the safety threshold.
    """

    kind = "homogeneous"

    def __init__(
        self,
        platform: ServerPlatform,
        app: AppProfile,
        duration_s: float,
        safety_cap_bytes_per_s: float,
        safety_threshold_c: float,
        window_model: ServerWindowModel,
    ) -> None:
        self._duration_s = duration_s
        self._safety_cap = safety_cap_bytes_per_s
        self._safety_threshold_c = safety_threshold_c
        self._window = window_model
        self._throttle = OpenLoopThrottle()
        self._cpufreq = CPUFreq(platform.cpu_power)
        self.memspot = make_memspot(
            cooling=platform.cooling,
            ambient=platform.ambient_params(),
            physical_channels=platform.channels,
            dimms_per_channel=platform.dimms_per_channel,
        )
        self.dt_s = 1.0
        self._loads = [
            SocketLoad(resident=(app, app), active_cores=2)
            for _ in range(platform.sockets)
        ]
        self.trace_recorder = TraceRecorder(resolution_s=None)

    def default_observers(self) -> tuple[Observer, ...]:
        return (self.trace_recorder, ProgressObserver())

    def done(self, engine: SteppingEngine) -> bool:
        return engine.now_s >= self._duration_s

    def max_sim_horizon(self) -> float | None:
        return None

    def timeout_error(self, engine: SteppingEngine) -> SimulationError:
        raise AssertionError("homogeneous runs have a fixed duration")

    def window(self, engine: SteppingEngine) -> WindowOutcome:
        if engine.sample.amb_c >= self._safety_threshold_c:
            self._throttle.program_bandwidth(self._safety_cap)
        else:
            self._throttle.program_bandwidth(None)
        result = self._window.evaluate(
            self._loads,
            frequency_hz=self._cpufreq.frequency_hz,
            voltage_v=self._cpufreq.voltage_v,
            bandwidth_cap_bytes_per_s=self._throttle.bandwidth_cap_bytes_per_s(),
        )
        return WindowOutcome(
            read_bytes_per_s=result.read_bytes_per_s,
            write_bytes_per_s=result.write_bytes_per_s,
            heating_sum=result.heating_sum,
            cpu_power_w=0.0,
        )

    def finalize(self, engine: SteppingEngine) -> TemperatureTrace:
        return self.trace_recorder.trace

    def progress(self, engine: SteppingEngine) -> dict[str, Any]:
        return {"duration_s": self._duration_s}

    def state_dict(self) -> dict[str, Any]:
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        pass


def run_homogeneous(
    platform: ServerPlatform,
    app_name: str,
    duration_s: float = 500.0,
    safety_cap_bytes_per_s: float = 3.0e9,
    safety_threshold_c: float = 100.0,
    daughter_card: DaughterCard | None = None,
    window_model: ServerWindowModel | None = None,
) -> tuple[TemperatureTrace, DaughterCard]:
    """Warm-up run of four copies of one program (§5.4.1, Figs. 5.4/5.5).

    No DTM policy runs; the chipset open-loop throttle arms only when the
    AMB crosses ``safety_threshold_c`` (the paper disables throttling
    below 100 degC and caps at 3 GB/s above it on the SR1500AL).

    Returns the model-truth temperature trace and the daughter card whose
    "amb" channel holds the noisy sensor log.
    """
    app: AppProfile = get_app(app_name)
    window = window_model or ServerWindowModel(platform)
    card = daughter_card or DaughterCard(sampling_period_s=1.0)
    if "amb" not in card.channels:
        card.add_channel("amb")
    if "inlet" not in card.channels:
        card.add_channel("inlet", noisy=False)
    strategy = HomogeneousStrategy(
        platform,
        app,
        duration_s,
        safety_cap_bytes_per_s,
        safety_threshold_c,
        window,
    )
    engine = SteppingEngine(
        strategy,
        observers=(*strategy.default_observers(), DaughterCardObserver(card)),
    )
    trace = engine.run_to_completion()
    return trace, card
