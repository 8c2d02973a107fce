"""The unified stepping engine — one loop for every simulator.

Both of the paper's experimental tracks follow the same per-DTM-window
cadence: read the sensors, let the policy (or chipset) decide, evaluate
the level-1 performance model, advance the batch, step MEMSpot, account
energy and peaks, sample the trace.

:class:`SteppingEngine` owns that cadence and the run around it:

- :meth:`step_windows` / :meth:`run_to_completion` — advance one slice
  or the whole batch;
- :meth:`checkpoint` / :meth:`restore` — an explicit, versioned,
  JSON-serializable :class:`~repro.engine.state.EngineState` snapshot
  at any window boundary.  A restored run is **bit-identical** to an
  uninterrupted one (the engine tests enforce this for both
  simulators, restoring in a fresh process);
- the observers every engine of a cell carries — the strategy's trace
  recorder, then a :class:`~repro.engine.observers.ProgressObserver`
  — so any checkpoint of a cell restores into any other engine of it,
  plus the extra ones a caller attaches (the §5.4.1 daughter card);
- the runaway horizon, and the shared post-step accounting (peaks,
  the ambient-temperature time integral, memory/CPU energy) in exactly
  the floating-point order the historical inlined loops used, so
  engine-hosted runs reproduce their goldens byte for byte.

A :class:`RunStrategy` supplies only what differs between experiments:
the model wiring (scheduler, policy, window model, MEMSpot), the
window's decision and outcome, and the final result object.

Within one window the division of labor is:

1. engine: runaway guard (a batch run whose clock passes
   :data:`MAX_SIM_S` raises one :class:`~repro.errors.SimulationError`
   naming the kind, the limit and the scheduler's finished/total jobs;
   a run without a scheduler stops at its own duration; the limit is
   read once, when the engine is built);
2. strategy ``window(engine)``: sensor reading -> decision, plus the
   strategy's own per-window counters; it returns the window's cache
   key, on which everything after the decision depends;
3. engine: window-cache lookup; on a miss the strategy's
   ``window_outcome(key)`` computes the :class:`WindowOutcome`
   (actuation, level-1 evaluation, per-slot progress, thermal load
   built with ``memspot.load``) and the engine stores it;
4. engine: the thermal kernel's ``step(outcome.load, dt)`` (the RC
   update, the only part of MEMSpot that depends on thermal state);
5. engine: every accumulation, in the historical per-slot order (part
   of the bit-identity contract) — instructions, the scheduler's
   ``advance``, traffic, L2 misses, peaks, integrals, energies — then
   the clock, the observers due (each declares ``every_windows``), and
   ``done`` if a job finished (every window without a scheduler).

Between job completions the scheduler's slot assignment is frozen, so
an outcome is a pure function of its key for as long as no job
finishes: the engine clears the cache when ``advance`` reports a
finished job and on :meth:`SteppingEngine.restore`.

:meth:`SteppingEngine._run` is that window as one flat loop, for every
stepping method, with the accumulators in locals written back before
an observer or ``done`` sees the engine: about 13 Python calls a
ch4 window (cProfile over ``perfbench`` ``cells_solo --seed 1``), and
17-22 a ch5 window (cProfile over whole W1 cells of each policy on
both servers, on a warm server model).
With tracing on it times only every ``sample_every``-th window (see
:class:`~repro.obs.trace.TracingObserver`).
"""

from __future__ import annotations

import math
import sys
from time import perf_counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Protocol

from repro.engine.codec import apply_state, decode_state, state_dict
from repro.engine.observers import ProgressObserver
from repro.engine.state import EngineState
from repro.errors import CheckpointError, SimulationError
from repro.obs.trace import engine_observer

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.kernel import MemSpotSample, ThermalLoad
    from repro.engine.observers import Observer, TraceRecorder

#: Runaway horizon of a batch run (one with a scheduler), simulated
#: seconds: far past any batch the paper runs, so only a run that can
#: never finish reaches it.
MAX_SIM_S = 500_000.0


@dataclass(frozen=True, slots=True)
class WindowOutcome:
    """One window-cache entry: everything a window applies after its
    decision (see :meth:`RunStrategy.window_outcome`)."""

    #: The window's thermal load: memory throughput and CPU heating
    #: turned into power and stable-point terms by the kernel's
    #: ``load``.
    load: "ThermalLoad"
    #: Processor power over the window, watts.
    cpu_power_w: float
    #: Slot -> instructions retired, for the scheduler's ``advance``
    #: and, in insertion order, the run's total; None when no slot runs.
    progress: dict[int, float] | None = None
    #: Memory traffic over the window, bytes.
    traffic_bytes: float = 0.0
    #: L2 misses over the window.
    l2_misses: float = 0.0


class RunStrategy(Protocol):
    """Experiment-specific wiring the engine drives (see module doc):
    the window and the result, nothing of the run around them.

    A window is split in two: :meth:`window` decides and returns a
    hashable cache key; :meth:`window_outcome` turns a key the engine
    has not cached yet into the window's :class:`WindowOutcome`.  The
    outcome must be a pure function of the key while the scheduler's
    slot assignment stands, i.e. until a job finishes.  The strategy
    never touches the engine's accumulators.

    Implementations: ``Chapter4Strategy`` (:mod:`repro.core.simulator`),
    ``ServerStrategy`` and ``HomogeneousStrategy``
    (:mod:`repro.testbed.runner`).
    """

    #: Registry-style kind tag, embedded in checkpoints (``ch4``, ...).
    kind: str
    #: DTM window length, seconds.
    dt_s: float
    #: The level-2 thermal kernel (a ``BatchedMemSpot``).
    memspot: Any
    #: The batch scheduler the engine advances with each outcome's
    #: progress and reads job counts from (None for a run without one,
    #: which the runaway horizon does not bound).
    scheduler: Any
    #: The trace recorder the engine attaches as its first observer;
    #: ``finalize`` embeds its trace.
    trace_recorder: "TraceRecorder"
    #: The strategy's checkpoint fields (see :mod:`repro.engine.codec`).
    STATE_FIELDS: tuple

    def done(self, engine: "SteppingEngine") -> bool:
        """Whether the run has nothing left to simulate; asked at slice
        start and after each window that finished a job (every window
        without a scheduler), so slot-derived state may refresh here."""
        ...

    def window(self, engine: "SteppingEngine") -> Hashable:
        """Decide on ``engine.sample`` (the rest of the engine may lag);
        return the window's cache key."""
        ...

    def window_outcome(self, key: Any) -> WindowOutcome:
        """Compute the outcome of a window whose key missed the cache."""
        ...

    def finalize(self, engine: "SteppingEngine") -> Any:
        """Build the run's result object from the engine state."""
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
    """Drives one :class:`RunStrategy` window by window.

    Every engine carries the strategy's trace recorder, then a
    :class:`~repro.engine.observers.ProgressObserver`; ``observers``
    are extra ones, notified after those two.
    """

    def __init__(
        self,
        strategy: RunStrategy,
        observers: Iterable["Observer"] = (),
    ) -> None:
        self.strategy = strategy
        self.dt_s = strategy.dt_s
        self._memspot = strategy.memspot
        #: The strategy's batch scheduler (None for a run without one).
        self.scheduler = strategy.scheduler
        #: Runaway limit, read once: a batch run's is MAX_SIM_S.
        self._horizon = math.inf if self.scheduler is None else MAX_SIM_S
        self._observers = [
            strategy.trace_recorder, ProgressObserver(), *observers
        ]
        #: (observer, period) of each observer called per window, and
        #: the period of their union (0: none is ever due).
        self._periodic = [
            (o, o.every_windows) for o in self._observers if o.every_windows
        ]
        self._due_every = math.gcd(*(every for _, every in self._periodic))
        #: Key -> :class:`WindowOutcome`, valid until a job finishes.
        self._window_cache: dict = {}
        # When process-wide tracing is on, the window loop counts
        # windows and times every `sample_every`-th one for this recorder.
        self._tracing = engine_observer()
        self._traced_windows = 0
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
        self._result: Any = None
        self._finished = False

    # -- observation -------------------------------------------------------

    @property
    def observers(self) -> tuple["Observer", ...]:
        """The attached observers, in notification order."""
        return tuple(self._observers)

    # -- stepping ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the strategy has nothing left to simulate."""
        return self.strategy.done(self)

    def step_window(self) -> int:
        """Advance one DTM window; returns 1, or 0 when the run is done."""
        return self._run(1)

    def step_windows(self, count: int) -> int:
        """Advance up to ``count`` windows; returns how many ran.

        Stops early when the batch completes, so callers can slice a
        run without overshooting: time-sliced job cells and the
        CLI's checkpointed runs are both built on this.
        """
        if count < 0:
            raise SimulationError("cannot step a negative window count")
        return self._run(count)

    def run_to_completion(self) -> Any:
        """Run the remaining windows and return the strategy's result."""
        self._run(sys.maxsize)
        return self.finish()

    def _run(self, count: int) -> int:
        """The window loop: up to ``count`` windows, fewer when the run
        is done; returns how many ran (see the module doc)."""
        strategy = self.strategy
        done = strategy.done
        if count < 1 or done(self):
            return 0
        window = strategy.window
        window_outcome = strategy.window_outcome
        cache = self._window_cache
        kernel_step = self._memspot.step
        advance = None if self.scheduler is None else self.scheduler.advance
        # Without a scheduler `done` may read the clock: ask every window.
        every_window = check_done = advance is None
        dt = self.dt_s
        horizon = self._horizon
        due_every = self._due_every
        due = self.windows // due_every * due_every + due_every if due_every else -1
        tracing = self._tracing
        first = self._traced_windows
        timed = -1 if tracing is None else -first % tracing.sample_every
        now, windows = self.now_s, self.windows
        traffic, misses = self.traffic_bytes, self.l2_misses
        instructions, ambient_integral = self.instructions, self.ambient_integral
        cpu_energy, memory_energy = self.cpu_energy_j, self.memory_energy_j
        peak_amb, peak_dram = self.peak_amb_c, self.peak_dram_c
        stepped = 0
        try:
            while stepped < count and now <= horizon:
                timing = stepped == timed
                if timing:
                    t0 = perf_counter()
                key = window(self)
                outcome = cache.get(key)
                if outcome is None:
                    outcome = cache[key] = window_outcome(key)
                if timing:
                    t1 = perf_counter()
                sample = kernel_step(outcome.load, dt)
                if timing:
                    t2 = perf_counter()
                progress = outcome.progress
                if progress is not None:
                    for advanced in progress.values():
                        instructions += advanced
                    if advance(progress):
                        cache.clear()
                        check_done = True
                    traffic += outcome.traffic_bytes
                    misses += outcome.l2_misses
                self.sample = sample
                amb_c, dram_c, ambient_c, power_w = sample
                if amb_c > peak_amb:
                    peak_amb = amb_c
                if dram_c > peak_dram:
                    peak_dram = dram_c
                ambient_integral += ambient_c * dt
                memory_energy += power_w * dt
                cpu_energy += outcome.cpu_power_w * dt
                now += dt
                windows += 1
                stepped += 1
                if windows == due or check_done:
                    self._store(
                        now, windows, traffic, misses, instructions, cpu_energy,
                        memory_energy, ambient_integral, peak_amb, peak_dram,
                    )
                    if windows == due:
                        for observer, every in self._periodic:
                            if not windows % every:
                                observer.on_window(self)
                        due += due_every
                if timing:
                    tracing.record_window(
                        first + timed, t1 - t0, t2 - t1, perf_counter() - t2
                    )
                    timed += tracing.sample_every
                if check_done:
                    if done(self):
                        break
                    check_done = every_window
        finally:
            self._traced_windows = first + stepped
            self._store(
                now, windows, traffic, misses, instructions, cpu_energy,
                memory_energy, ambient_integral, peak_amb, peak_dram,
            )
        # Short of ``count`` and not done: the horizon stopped the loop.
        if stepped < count and not done(self):
            raise SimulationError(
                f"{strategy.kind} run did not finish within {self._horizon} "
                f"simulated seconds ({self.scheduler.finished_jobs}/"
                f"{self.scheduler.total_jobs} jobs done)"
            )
        return stepped

    def _store(self, *values: float) -> None:
        """Write the window loop's locals back to the engine."""
        (
            self.now_s, self.windows, self.traffic_bytes, self.l2_misses,
            self.instructions, self.cpu_energy_j, self.memory_energy_j,
            self.ambient_integral, self.peak_amb_c, self.peak_dram_c,
        ) = values

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
            thermal=state_dict(self._memspot),
            strategy_state=state_dict(self.strategy),
            observers=[state_dict(observer) for observer in self._observers],
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
        if len(state.observers) != len(self._observers):
            raise CheckpointError(
                f"checkpoint carries {len(state.observers)} observer "
                f"states, this engine has {len(self._observers)} observers "
                f"attached — rebuild the engine with the same observers"
            )
        missing = [
            name for name in _ACCUMULATORS if name not in state.accumulators
        ]
        if missing:
            raise CheckpointError(
                f"checkpoint is missing accumulators {missing}"
            )
        # Everything is decoded and checked before anything is
        # assigned: a refused snapshot leaves the engine as it was.
        sections = [
            (self._memspot, state.thermal, "thermal"),
            (self.strategy, state.strategy_state, "strategy_state"),
        ] + [
            (observer, section, f"observers.{index}")
            for index, (observer, section) in enumerate(
                zip(self._observers, state.observers)
            )
        ]
        decoded = [
            (component, decode_state(component, section, path))
            for component, section, path in sections
        ]
        for component, values in decoded:
            apply_state(component, values)
        # EngineState.from_dict has already checked these are finite
        # numbers and a non-negative window count.
        self.windows = state.windows
        self.now_s = state.now_s
        for name in _ACCUMULATORS:
            setattr(self, name, state.accumulators[name])
        # At a window boundary the live sample's temperatures equal the
        # chain maxima, which is exactly what ``sample()`` reports; the
        # power field is never read before the next step overwrites it.
        self.sample = self.strategy.memspot.sample()
        # The scheduler moved to an arbitrary point: every cached
        # outcome is stale, even if the finished-job count matches.
        self._window_cache.clear()
        self._result = None
        self._finished = False
