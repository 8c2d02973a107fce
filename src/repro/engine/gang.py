"""Gang execution — many compatible cells stepped in lock-step.

A campaign grid pays the per-window cadence once per cell: sensor
reading, policy decision, level-1 evaluation, kernel step, accounting.
A *gang* steps N compatible cells through that cadence together: cells
share the DTM cadence (equal ``dt_s``) and the chain topology but may
differ in policy, workload and thermal parameters.  Per window the gang
makes one :meth:`~repro.dtm.base.DTMPolicy.decide_all` call over every
cell's policy, runs each cell's own window body under its decision,
and advances all N thermal chains with one
:class:`~repro.core.kernel.GridMemSpot` step.

Bit-identity is the design constraint, not an afterthought: the policy
step and window body are the ones a solo run uses, the grid kernel is
bit-identical to per-cell stepping, and the flat-array accounting
performs each engine's max/multiply/add sequence elementwise.  The
property suite pins gang results to serial runs byte for byte.

:func:`plan_gangs` is the safe entry point: it groups arbitrary cells
into gangs and solo leftovers.  Construct :class:`GangStrategy`
directly only with cells you have proven compatible yourself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.kernel import BatchedMemSpot, GridMemSpot, _import_numpy
from repro.core.memspot import MemSpotSample
from repro.dtm.base import DTMPolicy
from repro.engine.observers import ProgressObserver, TraceRecorder
from repro.engine.state import EngineState
from repro.engine.stepping import SteppingEngine
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import METRICS


class _VectorEpoch:
    """Hoisted state for the batched lockstep fast path.

    One instance spans one membership generation of a gang (built
    lazily, dropped on retirement/restore/flush).  It shadows the
    engine-owned per-window accounting in flat arrays — peaks, energy
    integrals, clocks — so the per-window cost of N cells is a handful
    of array operations plus the strategies' own window bodies instead
    of N full ``begin_window``/``apply_window`` round trips.  The
    arrays are scattered back into the engines at every point where
    engine state becomes externally visible.
    """

    __slots__ = (
        "engines",
        "strategies",
        "policies",
        "done_fns",
        "grid",
        "np",
        "horizons",
        "min_horizon",
        "progress_observers",
        "any_progress",
        "amb",
        "dram",
        "windows",
        "now",
        "peak_amb",
        "peak_dram",
        "amb_int",
        "mem_e",
        "cpu_e",
    )


class GangStrategy:
    """Drives N compatible engines window by window through one grid.

    ``backend`` selects the :class:`~repro.core.kernel.GridMemSpot`
    kernel backend.  The gang owns no results — each engine finalizes
    its own, exactly as a solo run would — and cells that finish early
    retire from the grid while the rest keep stepping.
    """

    def __init__(
        self,
        engines: Sequence[SteppingEngine],
        *,
        backend: str = "auto",
    ) -> None:
        engines = list(engines)
        if not engines:
            raise ConfigurationError("a gang needs at least one engine")
        dt = engines[0].dt_s
        for engine in engines:
            if engine.dt_s != dt:
                raise ConfigurationError(
                    "gang cells must share the DTM window length "
                    f"(got {engine.dt_s} and {dt})"
                )
            if not isinstance(engine.strategy.memspot, BatchedMemSpot):
                raise ConfigurationError(
                    "gang cells need BatchedMemSpot kernels "
                    f"(got {type(engine.strategy.memspot).__name__})"
                )
        self.dt_s = dt
        self._engines = engines
        self._backend_choice = backend
        self._active = [
            index for index, engine in enumerate(engines) if not engine.done
        ]
        #: The active engines themselves, cached so the per-window hot
        #: path does no index re-mapping; rebuilt only on membership
        #: changes (retirement, restore).
        self._active_engines = [engines[j] for j in self._active]
        self._grid: GridMemSpot | None = None
        #: Vector fast-path state: None = not yet evaluated for the
        #: current membership, False = ineligible (per-cell fallback),
        #: else the live :class:`_VectorEpoch`.
        self._vector: Any = None

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._engines)

    @property
    def engines(self) -> tuple[SteppingEngine, ...]:
        """Member engines, in gang (and result) order."""
        return tuple(self._engines)

    @property
    def active_cells(self) -> int:
        """Cells still stepping (finished ones have retired)."""
        return len(self._active)

    @property
    def kernel_backend(self) -> str:
        """The resolved grid backend for the current membership."""
        return self._ensure_grid().backend if self._active else "python"

    @property
    def done(self) -> bool:
        """Whether every cell has finished its batch."""
        return not self._active

    # -- stepping ----------------------------------------------------------

    def _ensure_grid(self) -> GridMemSpot:
        if self._grid is None:
            self._grid = GridMemSpot(
                [self._engines[j].strategy.memspot for j in self._active],
                backend=self._backend_choice,
            )
        return self._grid

    def _sync_grid(self) -> None:
        if self._grid is not None:
            self._grid.sync()

    def _retire_finished(self) -> None:
        still = [j for j in self._active if not self._engines[j].done]
        if len(still) == len(self._active):
            return
        # Write thermal state back before shrinking the grid: retiring
        # cells must leave with their final temperatures, and the next
        # grid re-pulls the survivors'.
        self._sync_grid()
        self._active = still
        self._active_engines = [self._engines[j] for j in still]
        self._grid = None
        self._vector = None

    # -- vector fast path --------------------------------------------------

    def _build_vector_epoch(self) -> Any:
        """Build the batched-lockstep state, or False when ineligible.

        The fast path replays every per-window operation a solo engine
        performs, so it only engages when nothing else watches the
        per-window stream: no per-phase tracing, strategies that expose
        the split decide/window surface, and observers that provably
        cannot see a difference (a disabled :class:`TraceRecorder`, or
        a :class:`ProgressObserver` — fired at exactly the windows it
        would fire on solo, against flushed engine state).
        """
        engines = self._active_engines
        strategies = []
        progress_observers: list[list[ProgressObserver]] = []
        for engine in engines:
            strategy = engine.strategy
            if engine._tracing is not None:
                return False
            if not hasattr(strategy, "dtm_policy") or not hasattr(
                strategy, "window_with_decision"
            ):
                return False
            watchers: list[ProgressObserver] = []
            for obs in engine.observers:
                if type(obs) is TraceRecorder and not obs.enabled:
                    continue
                if type(obs) is ProgressObserver:
                    watchers.append(obs)
                    continue
                return False
            strategies.append(strategy)
            progress_observers.append(watchers)

        ep = _VectorEpoch()
        ep.engines = list(engines)
        ep.strategies = strategies
        ep.policies = [strategy.dtm_policy for strategy in strategies]
        ep.done_fns = [
            (engine.strategy.done, engine) for engine in engines
        ]
        ep.grid = self._ensure_grid()
        ep.np = _import_numpy() if ep.grid.backend == "numpy" else None
        ep.horizons = [s.max_sim_horizon() for s in strategies]
        ep.min_horizon = min(
            (h for h in ep.horizons if h is not None), default=None
        )
        ep.progress_observers = progress_observers
        ep.any_progress = any(progress_observers)
        ep.amb = [engine.sample.amb_c for engine in engines]
        ep.dram = [engine.sample.dram_c for engine in engines]
        ep.windows = [engine.windows for engine in engines]
        ep.now = [engine.now_s for engine in engines]
        peak_amb = [engine.peak_amb_c for engine in engines]
        peak_dram = [engine.peak_dram_c for engine in engines]
        amb_int = [engine.ambient_integral for engine in engines]
        mem_e = [engine.memory_energy_j for engine in engines]
        cpu_e = [engine.cpu_energy_j for engine in engines]
        if ep.np is not None:
            np = ep.np
            peak_amb = np.asarray(peak_amb, dtype=np.float64)
            peak_dram = np.asarray(peak_dram, dtype=np.float64)
            amb_int = np.asarray(amb_int, dtype=np.float64)
            mem_e = np.asarray(mem_e, dtype=np.float64)
            cpu_e = np.asarray(cpu_e, dtype=np.float64)
        ep.peak_amb = peak_amb
        ep.peak_dram = peak_dram
        ep.amb_int = amb_int
        ep.mem_e = mem_e
        ep.cpu_e = cpu_e
        return ep

    def _scatter_vector_state(self, ep: _VectorEpoch) -> None:
        """Write the epoch's shadow accumulators into the engines."""
        if ep.np is not None:
            peak_amb = ep.peak_amb.tolist()
            peak_dram = ep.peak_dram.tolist()
            amb_int = ep.amb_int.tolist()
            mem_e = ep.mem_e.tolist()
            cpu_e = ep.cpu_e.tolist()
        else:
            peak_amb = ep.peak_amb
            peak_dram = ep.peak_dram
            amb_int = ep.amb_int
            mem_e = ep.mem_e
            cpu_e = ep.cpu_e
        for i, engine in enumerate(ep.engines):
            engine.peak_amb_c = peak_amb[i]
            engine.peak_dram_c = peak_dram[i]
            engine.ambient_integral = amb_int[i]
            engine.memory_energy_j = mem_e[i]
            engine.cpu_energy_j = cpu_e[i]
            engine.windows = ep.windows[i]
            engine.now_s = ep.now[i]

    def _flush_vector(self) -> None:
        """Fully commit and drop a live vector epoch.

        Engine accumulators, thermal state, and each engine's live
        ``sample`` all become
        consistent with what per-cell stepping would have left — the
        same boundary contract :meth:`SteppingEngine.restore` relies
        on (``sample()`` at a window boundary equals the last step's
        sample in every field read before the next step).
        """
        ep = self._vector
        if not isinstance(ep, _VectorEpoch):
            return
        self._vector = None
        self._scatter_vector_state(ep)
        self._sync_grid()
        for engine in ep.engines:
            engine.sample = engine.strategy.memspot.sample()

    def _step_vector(self, ep: _VectorEpoch) -> bool:
        """One batched lockstep window (the vector fast path)."""
        engines = ep.engines
        count = len(engines)
        dt = self.dt_s
        now = ep.now
        # Runaway-horizon guard, hoisted: nobody can trip a horizon
        # while the latest clock is below the earliest one.
        if ep.min_horizon is not None and max(now) > ep.min_horizon:
            for i, engine in enumerate(engines):
                horizon = ep.horizons[i]
                if horizon is not None and now[i] > horizon:
                    strategy = ep.strategies[i]
                    self._flush_vector()
                    raise strategy.timeout_error(engine)

        # One policy step for every cell, then each cell's own window
        # body under its decision.
        decisions = DTMPolicy.decide_all(ep.policies, ep.amb, ep.dram, dt)
        outcomes = [
            strategy.window_with_decision(engine, decision)
            for strategy, engine, decision in zip(
                ep.strategies, engines, decisions
            )
        ]

        # One grid step for all thermal chains, no sample objects.
        amb_peak, dram_peak, ambient_c, power = ep.grid.step_all(
            [o.read_bytes_per_s for o in outcomes],
            [o.write_bytes_per_s for o in outcomes],
            [o.heating_sum for o in outcomes],
            dt,
        )

        # apply_window accounting over flat arrays — elementwise, so
        # bit-identical to the per-cell max/multiply/add sequence.
        np = ep.np
        if np is not None:
            ep.peak_amb = np.maximum(ep.peak_amb, amb_peak)
            ep.peak_dram = np.maximum(ep.peak_dram, dram_peak)
            ep.amb_int = ep.amb_int + ambient_c * dt
            ep.mem_e = ep.mem_e + power * dt
            cpu_w = np.asarray(
                [o.cpu_power_w for o in outcomes], dtype=np.float64
            )
            ep.cpu_e = ep.cpu_e + cpu_w * dt
            ep.amb = amb_peak.tolist()
            ep.dram = dram_peak.tolist()
        else:
            peak_amb = ep.peak_amb
            peak_dram = ep.peak_dram
            amb_int = ep.amb_int
            mem_e = ep.mem_e
            cpu_e = ep.cpu_e
            for i in range(count):
                if amb_peak[i] > peak_amb[i]:
                    peak_amb[i] = amb_peak[i]
                if dram_peak[i] > peak_dram[i]:
                    peak_dram[i] = dram_peak[i]
                amb_int[i] += ambient_c[i] * dt
                mem_e[i] += power[i] * dt
                cpu_e[i] += outcomes[i].cpu_power_w * dt
            ep.amb = amb_peak
            ep.dram = dram_peak

        # Clock advance plus the progress-observer cadence.
        windows = ep.windows
        fired = False
        if ep.any_progress:
            watchers = ep.progress_observers
            for i in range(count):
                now[i] += dt
                w = windows[i] + 1
                windows[i] = w
                for obs in watchers[i]:
                    if w % obs.every_windows == 0:
                        fired = True
        else:
            for i in range(count):
                now[i] += dt
                windows[i] += 1
        if fired:
            # Observers see flushed engine state at exactly the windows
            # they would fire on solo (their own modulo re-checks).
            self._scatter_vector_state(ep)
            for i, engine in enumerate(engines):
                for obs in ep.progress_observers[i]:
                    obs.on_window(engine)

        for done, engine in ep.done_fns:
            if done(engine):
                self._flush_vector()
                self._retire_finished()
                return True
        return True

    def step_window(self) -> bool:
        """Advance every unfinished cell by one window.

        Returns False (and does nothing) once the gang is done.
        """
        if not self._active:
            return False
        engines = self._active_engines
        epoch = self._vector
        if epoch is None:
            epoch = self._vector = self._build_vector_epoch()
            METRICS.counter_inc(
                "repro_gang_step_path_total",
                "Gang cells by stepping path",
                amount=float(len(engines)),
                path="vector" if epoch is not False else "fallback",
            )
        if epoch is not False:
            return self._step_vector(epoch)
        grid = self._ensure_grid()
        outcomes = [engine.begin_window() for engine in engines]
        columns = grid.step_all(
            [o.read_bytes_per_s for o in outcomes],
            [o.write_bytes_per_s for o in outcomes],
            [o.heating_sum for o in outcomes],
            self.dt_s,
        )
        if grid.backend == "numpy":
            columns = [column.tolist() for column in columns]
        for engine, outcome, amb, dram, ambient, power in zip(
            engines, outcomes, *columns
        ):
            engine.apply_window(
                outcome,
                MemSpotSample(
                    amb_c=amb, dram_c=dram, ambient_c=ambient,
                    memory_power_w=power,
                ),
            )
        self._retire_finished()
        return True

    def step_windows(self, count: int) -> int:
        """Advance up to ``count`` windows; returns how many ran."""
        if count < 0:
            raise ConfigurationError("cannot step a negative window count")
        stepped = 0
        while stepped < count and self.step_window():
            stepped += 1
        return stepped

    def run_to_completion(self) -> list[Any]:
        """Run every cell to completion; results in gang order."""
        while self.step_window():
            pass
        return self.finish()

    def finish(self) -> list[Any]:
        """Finalize every cell (idempotent), in gang order."""
        self._flush_vector()
        self._sync_grid()
        return [engine.finish() for engine in self._engines]

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> list[EngineState]:
        """Per-cell snapshots at the current window boundary.

        Thermal state is synced out of the grid first, so each snapshot
        equals the one a solo run of that cell would have written —
        restoring into fresh solo engines (or a fresh gang) resumes
        bit-identically.
        """
        self._flush_vector()
        self._sync_grid()
        return [engine.checkpoint() for engine in self._engines]

    def restore(self, states: Sequence[EngineState]) -> None:
        """Resume from per-cell snapshots (gang order, one per cell)."""
        if len(states) != len(self._engines):
            raise CheckpointError(
                f"gang restore needs {len(self._engines)} states, "
                f"got {len(states)}"
            )
        for engine, state in zip(self._engines, states):
            engine.restore(state)
        self._active = [
            index
            for index, engine in enumerate(self._engines)
            if not engine.done
        ]
        self._active_engines = [self._engines[j] for j in self._active]
        self._grid = None  # re-pull restored thermal state lazily
        self._vector = None  # shadow state is stale; rebuild lazily


@dataclass(frozen=True)
class PlannedGang:
    """One gang plus the campaign cells it executes, aligned by index."""

    #: (cache key, spec) per member, in gang order.
    cells: tuple[tuple[str, Any], ...]
    gang: GangStrategy


@dataclass(frozen=True)
class GangPlan:
    """The output of :func:`plan_gangs`: gangs plus solo leftovers."""

    gangs: tuple[PlannedGang, ...]
    #: Cells that could not join any gang (no engine factory, scalar
    #: kernel, no compatible partner) — run these per cell.
    solo: tuple[tuple[str, Any], ...]

    @property
    def ganged_cells(self) -> int:
        """How many cells run inside gangs."""
        return sum(len(planned.cells) for planned in self.gangs)


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def plan_gangs(
    cells: Sequence[tuple[str, Any]],
    *,
    batch_cells: int = 16,
    backend: str = "auto",
) -> GangPlan:
    """Group campaign cells into executable gangs.

    ``cells`` are deduplicated ``(cache key, spec)`` pairs.  Cells
    group by (kind, window length, chain topology) and each group
    chunks into gangs of at most ``batch_cells`` members.  Cells with
    no engine factory, a non-batched kernel, or no compatible partner
    come back in ``solo`` (order preserved) for per-cell execution.
    """
    from repro.campaign.spec import engine_for_spec, runner_for

    if batch_cells < 2:
        raise ConfigurationError("batch_cells must be >= 2")
    solo: list[tuple[str, Any]] = []
    groups: dict[tuple, list] = {}
    for key, spec in cells:
        if runner_for(spec.kind).make_engine is None:
            solo.append((key, spec))
            continue
        engine = engine_for_spec(spec)
        memspot = engine.strategy.memspot
        if not isinstance(memspot, BatchedMemSpot):
            solo.append((key, spec))
            continue
        group_key = (spec.kind, engine.dt_s, memspot.dimms_per_channel)
        groups.setdefault(group_key, []).append((key, spec, engine))

    gangs: list[PlannedGang] = []
    for members in groups.values():
        for chunk in _chunked(members, batch_cells):
            if len(chunk) < 2:
                # A gang of one is just overhead; run the cell solo.
                solo.extend((key, spec) for key, spec, _ in chunk)
                continue
            gangs.append(
                PlannedGang(
                    cells=tuple((key, spec) for key, spec, _ in chunk),
                    gang=GangStrategy(
                        [engine for _, _, engine in chunk], backend=backend
                    ),
                )
            )
    plan = GangPlan(gangs=tuple(gangs), solo=tuple(solo))
    if plan.gangs:
        METRICS.counter_inc(
            "repro_gang_planned_total",
            "Gangs produced by plan_gangs",
            amount=float(len(plan.gangs)),
        )
    if plan.ganged_cells:
        METRICS.counter_inc(
            "repro_gang_cells_total",
            "Campaign cells by gang placement",
            amount=float(plan.ganged_cells),
            placement="ganged",
        )
    if plan.solo:
        METRICS.counter_inc(
            "repro_gang_cells_total",
            "Campaign cells by gang placement",
            amount=float(len(plan.solo)),
            placement="solo",
        )
    return plan
