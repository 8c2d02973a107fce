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
results stay byte-identical to the historical inlined loop.  Between
job completions a window's products depend only on the policy
decision, whose ``index`` is the strategy's window-cache key (see
:meth:`ServerStrategy.window`).

:func:`run_homogeneous` reproduces the §5.4.1 warm-up experiments: four
copies of one program from idle-stable temperature, with the chipset
safety throttle arming near the TDP (Fig. 5.4 / Fig. 5.5) — also an
engine strategy (:class:`HomogeneousStrategy`), with the daughter-card
sensor logging attached as an observer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernel import BatchedMemSpot
from repro.core.results import JOBS, NAME, TOTAL, TemperatureTrace, trace_field
from repro.cpu.power import measured_chip_power_w
from repro.dtm.base import DTMPolicy
from repro.engine.codec import Field, Float, Nested, state_field
from repro.engine.observers import Observer, TraceRecorder
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
#: The §5.4.1 warm-up's chipset cap once the AMB passes the safety
#: threshold: 3 GB/s, as on the SR1500AL.
SAFETY_CAP_BYTES_PER_S = 3.0e9


@dataclass(frozen=True)
class ServerRunResult:
    """Outputs of one server experiment, declared for the codec like
    :class:`~repro.core.results.RunResult`."""

    platform: str = state_field(NAME)
    workload: str = state_field(NAME)
    policy: str = state_field(NAME)
    runtime_s: float = state_field(TOTAL)
    traffic_bytes: float = state_field(TOTAL)
    l2_misses: float = state_field(TOTAL)
    instructions: float = state_field(TOTAL)
    cpu_energy_j: float = state_field(TOTAL)
    memory_energy_j: float = state_field(TOTAL)
    #: Time-averaged memory inlet (CPU exhaust) temperature, degC.
    mean_inlet_c: float = state_field(Float())
    peak_amb_c: float = state_field(Float())
    finished_jobs: int = state_field(JOBS)
    trace: TemperatureTrace = trace_field()

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


class ServerStrategy:
    """One Chapter 5 (platform, workload, policy) measurement as an
    engine strategy.

    The Linux/chipset mechanism objects (hotplug, cpufreq, throttle)
    are fully re-programmed from the policy decision whenever the
    engine asks for a window's outcome (see :meth:`window_outcome`).
    Only that computation reads them, so they carry no cross-window
    state and stay out of the checkpoint.
    """

    kind = "ch5"
    STATE_FIELDS = (
        Field("scheduler", "scheduler", Nested()),
        Field("policy", "_policy", Nested(), {}),
    )

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
    ) -> None:
        self._platform = platform
        self._policy = policy
        self._window = window_model
        self._time_slice_s = time_slice_s
        self._base_frequency_level = base_frequency_level
        policy.reset()
        self._mix = get_mix(mix_name)
        self.scheduler = BatchScheduler(self._mix, copies, platform.total_cores)
        self._hotplug = CPUHotplug(platform.total_cores)
        self._cpufreq = CPUFreq(platform.cpu_power)
        self._throttle = OpenLoopThrottle()
        self._decision = None
        self.memspot = BatchedMemSpot(
            cooling=platform.cooling,
            ambient=platform.ambient_params(ambient_override_c),
            physical_channels=platform.channels,
            dimms_per_channel=platform.dimms_per_channel,
        )
        self.dt_s = platform.dtm_interval_s
        self._top_level = platform.levels.level_count - 1
        self._safety_cap = platform.levels.bw_caps_bytes_per_s[-1]
        self.trace_recorder = TraceRecorder(resolution_s=None)

    # -- engine protocol ---------------------------------------------------

    def done(self, engine: SteppingEngine) -> bool:
        return self.scheduler.done

    def window(self, engine: SteppingEngine) -> int:
        """One DTM window's decision; its cache key is the decision's
        ``index``.

        The policy reads ``engine.sample``, the previous window's
        sample, whose ``amb_c`` is the AMB sensor reading.  Between job
        completions the round-robin scheduler's slot assignment is
        frozen, so everything after the decision is a pure function of
        the decision, and a policy numbers its decisions (the rung of
        every Chapter 5 ladder), so the key is one int.
        """
        decision = self._decision = self._policy.decide(engine.sample, self.dt_s)
        return decision.index

    def window_outcome(self, key: int) -> WindowOutcome:
        """The window after its decision: the mechanisms, the socket
        model, per-slot progress, chip power and the thermal load."""
        decision = self._decision
        platform = self._platform
        hotplug = self._hotplug
        cpufreq = self._cpufreq
        throttle = self._throttle
        dt = self.dt_s

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

        loads, slot_groups = self._build_loads(self.scheduler, hotplug, online)
        if not loads:
            return WindowOutcome(
                self.memspot.load(0.0, 0.0, 0.0),
                measured_chip_power_w([], cpufreq.level, platform.cpu_power),
            )
        result = self._window.evaluate(
            loads,
            frequency_hz=cpufreq.frequency_hz,
            voltage_v=cpufreq.voltage_v,
            bandwidth_cap_bytes_per_s=throttle.bandwidth_cap_bytes_per_s(),
            time_slice_s=self._time_slice_s,
        )
        progress = {}
        utilizations: list[float] = []
        index = 0
        for load, slots in zip(loads, slot_groups):
            socket_utils = []
            for slot in slots:
                rate = result.programs[index]
                progress[slot] = rate.instructions_per_s * dt
                socket_utils.append(rate.utilization)
                index += 1
            if load.active_cores >= 2:
                utilizations.extend(socket_utils[:2])
            else:
                utilizations.append(min(1.0, sum(socket_utils)))
        # Eq. 3.6 heating plus a spin term: stalled-but-running cores
        # still draw dynamic power (why the measured inlet is hottest
        # under DTM-BW, Fig. 5.9), scaling with V and f.
        top_hz = platform.cpu_power.operating_points[0].frequency_hz
        spin = (
            _SPIN_HEAT
            * cpufreq.voltage_v
            * (cpufreq.frequency_hz / top_hz)
            * len(online)
        )
        return WindowOutcome(
            load=self.memspot.load(
                result.read_bytes_per_s,
                result.write_bytes_per_s,
                result.heating_sum + spin,
            ),
            cpu_power_w=measured_chip_power_w(
                utilizations, cpufreq.level, platform.cpu_power
            ),
            progress=progress,
            traffic_bytes=result.total_bytes_per_s * dt,
            l2_misses=result.l2_misses_per_s * dt,
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
            finished_jobs=self.scheduler.finished_jobs,
            trace=self.trace_recorder.trace,
        )

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

    def engine(self) -> SteppingEngine:
        """A fresh stepping engine for one run of this measurement."""
        return SteppingEngine(ServerStrategy(
            self._platform,
            self._policy,
            self._mix.name,
            self._copies,
            self._time_slice_s,
            self._ambient_override_c,
            self._window,
            self._base_frequency_level,
        ))

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
    above the safety threshold.  Whether it is armed is the window's
    cache key, and the only input of its outcome.
    """

    kind = "homogeneous"
    scheduler = None
    STATE_FIELDS = ()

    def __init__(
        self,
        platform: ServerPlatform,
        app: AppProfile,
        duration_s: float,
        safety_threshold_c: float,
        window_model: ServerWindowModel,
    ) -> None:
        self._duration_s = duration_s
        self._safety_threshold_c = safety_threshold_c
        self._window = window_model
        self._throttle = OpenLoopThrottle()
        self._cpufreq = CPUFreq(platform.cpu_power)
        self.memspot = BatchedMemSpot(
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

    def done(self, engine: SteppingEngine) -> bool:
        return engine.now_s >= self._duration_s

    def window(self, engine: SteppingEngine) -> bool:
        return engine.sample.amb_c >= self._safety_threshold_c

    def window_outcome(self, armed: bool) -> WindowOutcome:
        self._throttle.program_bandwidth(
            SAFETY_CAP_BYTES_PER_S if armed else None
        )
        result = self._window.evaluate(
            self._loads,
            frequency_hz=self._cpufreq.frequency_hz,
            voltage_v=self._cpufreq.voltage_v,
            bandwidth_cap_bytes_per_s=self._throttle.bandwidth_cap_bytes_per_s(),
        )
        return WindowOutcome(
            load=self.memspot.load(
                result.read_bytes_per_s,
                result.write_bytes_per_s,
                result.heating_sum,
            ),
            cpu_power_w=0.0,
        )

    def finalize(self, engine: SteppingEngine) -> TemperatureTrace:
        return self.trace_recorder.trace


def run_homogeneous(
    platform: ServerPlatform,
    app_name: str,
    duration_s: float = 500.0,
    safety_threshold_c: float = 100.0,
    window_model: ServerWindowModel | None = None,
) -> tuple[TemperatureTrace, DaughterCard]:
    """Warm-up run of four copies of one program (§5.4.1, Figs. 5.4/5.5).

    No DTM policy runs; the chipset open-loop throttle arms only when the
    AMB crosses ``safety_threshold_c`` (the paper disables throttling
    below 100 degC and caps at :data:`SAFETY_CAP_BYTES_PER_S` above it
    on the SR1500AL).

    Returns the model-truth temperature trace and a fresh 1 Hz daughter
    card whose "amb" channel holds the noisy sensor log.
    """
    app: AppProfile = get_app(app_name)
    window = window_model or ServerWindowModel(platform)
    card = DaughterCard(sampling_period_s=1.0)
    card.add_channel("amb")
    card.add_channel("inlet", noisy=False)
    strategy = HomogeneousStrategy(
        platform, app, duration_s, safety_threshold_c, window
    )
    engine = SteppingEngine(strategy, observers=(DaughterCardObserver(card),))
    return engine.run_to_completion(), card
