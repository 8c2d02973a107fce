"""The unified stepping engine — one loop for every simulator.

Both of the paper's experimental tracks follow the same per-DTM-window
cadence: read the sensors, let the policy (or chipset) decide, evaluate
the level-1 performance model, advance the batch, step MEMSpot, account
energy and peaks, sample the trace.  Before this module that cadence
was inlined three times (``TwoLevelSimulator.run``,
``ServerSimulator.run``, ``run_homogeneous``), which meant runs could
only execute to completion inside one opaque call.

:class:`SteppingEngine` owns the cadence behind an incremental surface:

- :meth:`step_windows` / :meth:`run_to_completion` — advance one slice
  or the whole batch;
- :meth:`checkpoint` / :meth:`restore` — an explicit, versioned,
  JSON-serializable :class:`~repro.engine.state.EngineState` snapshot
  at any window boundary.  A restored run is **bit-identical** to an
  uninterrupted one (the property suite enforces this for both
  simulators under both thermal kernels);
- pluggable :class:`~repro.engine.observers.Observer` hooks for trace
  recording, progress emission, checkpoint files, and early-stop
  guards.

A :class:`RunStrategy` supplies everything experiment-specific: the
model wiring (scheduler, policy, window model, MEMSpot), the
per-window actuation/evaluation, and the final result object.  The
engine itself performs the shared post-step accounting — peak
tracking, the ambient-temperature time integral, memory/CPU energy —
in exactly the floating-point order the inlined loops used, so
engine-hosted runs reproduce the pre-refactor goldens byte for byte.

Within one window the division of labor is:

1. engine: runaway guard (``now > max_sim_s`` raises the strategy's
   :class:`~repro.errors.SimulationError`);
2. strategy ``window(engine)``: sensor reading -> decision ->
   actuation -> level-1 evaluation -> scheduler advance.  The strategy
   accumulates ``instructions`` / ``traffic_bytes`` / ``l2_misses``
   directly on the engine (per-slot addition order is part of the
   bit-identity contract) and returns a :class:`WindowOutcome`;
3. engine: MEMSpot step, peaks, integrals, energies, clock advance,
   observer notification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Protocol

from repro.engine.state import EngineState
from repro.errors import CheckpointError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.memspot import MemSpotSample
    from repro.engine.observers import Observer


@dataclass(frozen=True)
class WindowOutcome:
    """What one strategy window hands back to the engine."""

    #: System-wide read throughput over the window, bytes/s.
    read_bytes_per_s: float
    #: System-wide write throughput over the window, bytes/s.
    write_bytes_per_s: float
    #: Eq. 3.6 CPU heating sum (sum of V_i * reference-IPC_i).
    heating_sum: float
    #: Processor power over the window, watts.
    cpu_power_w: float


class RunStrategy(Protocol):
    """Experiment-specific wiring the engine drives (see module doc).

    Implementations: ``Chapter4Strategy`` (:mod:`repro.core.simulator`),
    ``ServerStrategy`` and ``HomogeneousStrategy``
    (:mod:`repro.testbed.runner`).
    """

    #: Registry-style kind tag, embedded in checkpoints (``ch4``, ...).
    kind: str
    #: DTM window length, seconds.
    dt_s: float
    #: The level-2 thermal emulator (MemSpot or BatchedMemSpot).
    memspot: Any

    def done(self, engine: "SteppingEngine") -> bool:
        """Whether the run has nothing left to simulate."""
        ...

    def window(self, engine: "SteppingEngine") -> WindowOutcome:
        """Execute one window's decision/evaluation/advance."""
        ...

    def timeout_error(self, engine: "SteppingEngine") -> SimulationError:
        """The error raised when the run exceeds its horizon."""
        ...

    def finalize(self, engine: "SteppingEngine") -> Any:
        """Build the run's result object from the engine state."""
        ...

    def state_dict(self) -> dict[str, Any]:
        """Serializable strategy state for checkpoints."""
        ...

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        ...

    def progress(self, engine: "SteppingEngine") -> dict[str, Any]:
        """Extra progress-snapshot fields (job counts, ...)."""
        ...

    def max_sim_horizon(self) -> float | None:
        """Simulated-seconds runaway limit (None = unbounded)."""
        ...


#: The engine-owned accumulator fields, in checkpoint order.
_ACCUMULATORS = (
    "traffic_bytes",
    "l2_misses",
    "instructions",
    "cpu_energy_j",
    "memory_energy_j",
    "ambient_integral",
    "peak_amb_c",
    "peak_dram_c",
)


class SteppingEngine:
    """Drives one :class:`RunStrategy` window by window."""

    def __init__(
        self,
        strategy: RunStrategy,
        observers: Iterable["Observer"] = (),
    ) -> None:
        self.strategy = strategy
        self.dt_s = strategy.dt_s
        self._observers = list(observers)
        # When process-wide tracing is on, a transient TracingObserver
        # rides along and `step_window` takes the phase-timed path.
        # Imported lazily: repro.obs.trace subclasses Observer.
        from repro.obs.trace import engine_observer

        self._tracing = engine_observer()
        if self._tracing is not None:
            self._observers.append(self._tracing)
        self.windows = 0
        self.now_s = 0.0
        self.traffic_bytes = 0.0
        self.l2_misses = 0.0
        self.instructions = 0.0
        self.cpu_energy_j = 0.0
        self.memory_energy_j = 0.0
        #: Time integral of the memory-inlet (ambient) temperature —
        #: ``mean_ambient_c`` / ``mean_inlet_c`` divide it by runtime.
        self.ambient_integral = 0.0
        self.peak_amb_c = -273.15
        self.peak_dram_c = -273.15
        #: The previous window's MEMSpot sample — what the next
        #: window's sensor reading sees.
        self.sample: "MemSpotSample" = strategy.memspot.sample()
        self._stop_requested = False
        self._result: Any = None
        self._finished = False

    # -- observation -------------------------------------------------------

    @property
    def observers(self) -> tuple["Observer", ...]:
        """The attached observers, in notification order."""
        return tuple(self._observers)

    def request_stop(self) -> None:
        """Ask :meth:`run_to_completion` to finalize after this window
        (the early-stop/convergence-guard hook)."""
        self._stop_requested = True

    # -- stepping ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the strategy has nothing left to simulate."""
        return self.strategy.done(self)

    def step_window(self) -> None:
        """Advance exactly one DTM window."""
        if self._tracing is not None:
            self._step_window_traced()
            return
        outcome = self.begin_window()
        sample = self.strategy.memspot.step(
            outcome.read_bytes_per_s,
            outcome.write_bytes_per_s,
            outcome.heating_sum,
            self.dt_s,
        )
        self.apply_window(outcome, sample)

    def _step_window_traced(self) -> None:
        """`step_window` with per-phase wall timing for the tracer.

        Identical arithmetic to the fast path — only `perf_counter`
        reads are added around the three phases, and the observer
        decides (under sampling) whether a window span is emitted.
        """
        t0 = time.perf_counter()
        outcome = self.begin_window()
        t1 = time.perf_counter()
        sample = self.strategy.memspot.step(
            outcome.read_bytes_per_s,
            outcome.write_bytes_per_s,
            outcome.heating_sum,
            self.dt_s,
        )
        t2 = time.perf_counter()
        self.apply_window(outcome, sample)
        t3 = time.perf_counter()
        self._tracing.record_phases(self, t1 - t0, t2 - t1, t3 - t2)

    def begin_window(self) -> WindowOutcome:
        """The pre-thermal half of one window: guard + strategy.

        Runs the runaway-horizon check and the strategy's
        decision/evaluation/advance, returning the
        :class:`WindowOutcome` the thermal kernel consumes.  Split out
        of :meth:`step_window` so the gang runner
        (:mod:`repro.engine.gang`) can collect many cells' outcomes,
        step them through one grid kernel step, and hand each cell's
        sample back through :meth:`apply_window` — reusing this exact
        code path keeps gang-stepped cells bit-identical to solo runs.
        """
        horizon = self.strategy.max_sim_horizon()
        if horizon is not None and self.now_s > horizon:
            raise self.strategy.timeout_error(self)
        return self.strategy.window(self)

    def apply_window(self, outcome: WindowOutcome, sample: "MemSpotSample") -> None:
        """The post-thermal half of one window: accounting + observers.

        ``sample`` is the thermal kernel's output for ``outcome`` —
        normally produced by ``strategy.memspot.step`` inside
        :meth:`step_window`, or by a :class:`~repro.core.kernel.GridMemSpot`
        stepping this cell inside a gang.  Every accumulation below
        keeps the historical floating-point order (part of the
        bit-identity contract).
        """
        dt = self.dt_s
        self.sample = sample
        self.peak_amb_c = max(self.peak_amb_c, sample.amb_c)
        self.peak_dram_c = max(self.peak_dram_c, sample.dram_c)
        self.ambient_integral += sample.ambient_c * dt
        self.memory_energy_j += sample.memory_power_w * dt
        self.cpu_energy_j += outcome.cpu_power_w * dt
        self.now_s += dt
        self.windows += 1
        for observer in self._observers:
            observer.on_window(self)

    def step_windows(self, count: int) -> int:
        """Advance up to ``count`` windows; returns how many ran.

        Stops early when the batch completes (or an observer requested
        a stop), so callers can slice a run without overshooting:
        time-sliced cluster cells and the CLI's checkpointed runs are
        both built on this.
        """
        if count < 0:
            raise SimulationError("cannot step a negative window count")
        stepped = 0
        while stepped < count and not self._stop_requested and not self.done:
            self.step_window()
            stepped += 1
        return stepped

    def run_to_completion(self) -> Any:
        """Run the remaining windows and return the strategy's result."""
        while not self._stop_requested and not self.done:
            self.step_window()
        return self.finish()

    def finish(self) -> Any:
        """Finalize the result (idempotent) and notify observers."""
        if not self._finished:
            self._result = self.strategy.finalize(self)
            self._finished = True
            for observer in self._observers:
                observer.on_finish(self)
        return self._result

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> EngineState:
        """Snapshot the run at the current window boundary."""
        return EngineState(
            strategy=self.strategy.kind,
            windows=self.windows,
            now_s=self.now_s,
            accumulators={name: getattr(self, name) for name in _ACCUMULATORS},
            thermal=self.strategy.memspot.thermal_state(),
            strategy_state=self.strategy.state_dict(),
            observers=[
                obs.state_dict()
                for obs in self._observers
                if not getattr(obs, "transient", False)
            ],
        )

    def restore(self, state: EngineState) -> None:
        """Resume from a snapshot taken by an identically-built engine.

        The engine must have been constructed from the same spec/config
        (strategy wiring is rebuilt by the caller, not stored); the
        snapshot overlays only runtime state.  After a restore the
        remaining windows — and therefore the final result — are
        bit-identical to a run that never paused.
        """
        if state.strategy != self.strategy.kind:
            raise CheckpointError(
                f"checkpoint belongs to strategy {state.strategy!r}, "
                f"this engine runs {self.strategy.kind!r}"
            )
        durable = [
            obs
            for obs in self._observers
            if not getattr(obs, "transient", False)
        ]
        if len(state.observers) != len(durable):
            raise CheckpointError(
                f"checkpoint carries {len(state.observers)} observer "
                f"states, this engine has {len(durable)} observers "
                f"attached — rebuild the engine with the same observers"
            )
        missing = [
            name for name in _ACCUMULATORS if name not in state.accumulators
        ]
        if missing:
            raise CheckpointError(
                f"checkpoint is missing accumulators {missing}"
            )
        self.windows = int(state.windows)
        self.now_s = float(state.now_s)
        for name in _ACCUMULATORS:
            setattr(self, name, float(state.accumulators[name]))
        self.strategy.memspot.load_thermal_state(state.thermal)
        self.strategy.load_state_dict(state.strategy_state)
        for observer, observer_state in zip(durable, state.observers):
            observer.load_state_dict(observer_state)
        # At a window boundary the live sample's temperatures equal the
        # chain maxima, which is exactly what ``sample()`` reports; the
        # power field is never read before the next step overwrites it.
        self.sample = self.strategy.memspot.sample()
        self._stop_requested = False
        self._result = None
        self._finished = False
