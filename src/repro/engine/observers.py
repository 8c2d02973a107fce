"""Pluggable engine observers — the accounting that used to be inlined.

An :class:`Observer` is notified after every completed window and once
at run end.  The three concrete observers replace machinery that was
previously copy-pasted across the two simulator loops:

- :class:`TraceRecorder` — the trace-sampling accounting (resolution
  gating for Chapter 4, every-window logging for Chapter 5), owning
  the :class:`~repro.core.results.TemperatureTrace` the final result
  embeds.
- :class:`ProgressObserver` — publishes periodic run-progress
  snapshots to the process-wide broker
  (:data:`~repro.engine.progress.PROGRESS`), feeding ``/v1/progress``.
- :class:`CheckpointObserver` — writes an atomic
  :class:`~repro.engine.state.CheckpointFile` every N windows and
  removes it when the run completes.

:class:`SteadyStateGuard` is the early-stop/convergence observer: it
asks the engine to stop once the hottest AMB temperature has stopped
moving — useful for warm-up studies, never attached by default (it
changes results by construction).

Observers that carry run state (the recorder's trace and sampling
phase) expose ``state_dict``/``load_state_dict`` so engine checkpoints
capture them; stateless observers inherit the empty defaults.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.results import TemperatureTrace
from repro.engine.progress import PROGRESS
from repro.engine.state import CheckpointFile, EngineStateSerializer
from repro.errors import CheckpointError, checkpoint_float
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.stepping import SteppingEngine


class Observer:
    """Base observer: every hook is optional."""

    def on_window(self, engine: "SteppingEngine") -> None:
        """Called after each completed window (clock already advanced)."""

    def on_finish(self, engine: "SteppingEngine") -> None:
        """Called once when the run completes (after ``finalize``)."""

    def state_dict(self) -> dict[str, Any]:
        """Serializable observer state for engine checkpoints."""
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""


class TraceRecorder(Observer):
    """Samples the temperature trace at a fixed resolution.

    ``resolution_s=None`` records every window (the Chapter 5 loop's
    once-per-second polling, where the window *is* the second);
    otherwise a window is recorded whenever at least ``resolution_s``
    simulated seconds have passed since the last sample, with the
    first window always recorded (the accumulator starts at infinity)
    — exactly the inlined Chapter 4 arithmetic, preserved bit-for-bit.
    """

    def __init__(
        self, resolution_s: float | None = None, enabled: bool = True
    ) -> None:
        self.resolution_s = resolution_s
        self.enabled = enabled
        self.trace = TemperatureTrace()
        self._since_s = inf

    def on_window(self, engine: "SteppingEngine") -> None:
        if not self.enabled:
            # State is provably unchanged by a disabled window: the
            # accumulator starts at infinity and only the (enabled)
            # record branch ever resets it, so ``inf + dt`` is still
            # infinity — skipping the arithmetic keeps checkpoints
            # byte-identical while sparing the per-window cost on
            # trace-less campaign cells.
            return
        sample = engine.sample
        if self.resolution_s is None:
            self.trace.append(
                engine.now_s, sample.amb_c, sample.dram_c, sample.ambient_c
            )
            return
        self._since_s += engine.dt_s
        if self._since_s >= self.resolution_s:
            self._since_s = 0.0
            self.trace.append(
                engine.now_s, sample.amb_c, sample.dram_c, sample.ambient_c
            )

    def state_dict(self) -> dict[str, Any]:
        # The whole trace-so-far rides in every snapshot: the final
        # result embeds the full trace, so a run resumed on another
        # machine cannot reconstruct it from anything less.  This makes
        # checkpoint size grow with recorded samples — time-sliced
        # dispatch of trace-heavy cells should use generous slices.
        return {
            # JSON has no Infinity; None marks the pristine accumulator.
            "since_s": None if self._since_s == inf else self._since_s,
            "trace": {
                "times_s": list(self.trace.times_s),
                "amb_c": list(self.trace.amb_c),
                "dram_c": list(self.trace.dram_c),
                "ambient_c": list(self.trace.ambient_c),
            },
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        since = state.get("since_s")
        since = inf if since is None else checkpoint_float(since, "since_s", 0.0)
        raw = state.get("trace", {})
        columns = [
            [
                checkpoint_float(value, f"trace {name}[{i}]")
                for i, value in enumerate(raw.get(name, []))
            ]
            for name in ("times_s", "amb_c", "dram_c", "ambient_c")
        ]
        if len({len(column) for column in columns}) > 1:
            raise CheckpointError("trace columns must have equal lengths")
        self._since_s = since
        self.trace = TemperatureTrace(*columns)


class ProgressObserver(Observer):
    """Publishes run progress to the process-wide broker.

    Emits every ``every_windows`` windows plus a final ``done`` record.
    Publishing is a no-op unless the surrounding code labeled the run
    with :meth:`~repro.engine.progress.ProgressBroker.track`, so the
    observer is safe to attach unconditionally.
    """

    def __init__(self, every_windows: int = 200) -> None:
        if every_windows < 1:
            raise ValueError("every_windows must be >= 1")
        self.every_windows = every_windows

    def _publish(self, engine: "SteppingEngine", done: bool) -> None:
        snapshot = {
            "strategy": engine.strategy.kind,
            "windows": engine.windows,
            "now_s": engine.now_s,
            "done": done,
        }
        snapshot.update(engine.strategy.progress(engine))
        PROGRESS.publish(snapshot)

    def on_window(self, engine: "SteppingEngine") -> None:
        if engine.windows % self.every_windows == 0:
            self._publish(engine, done=False)

    def on_finish(self, engine: "SteppingEngine") -> None:
        self._publish(engine, done=True)


class CheckpointObserver(Observer):
    """Writes an atomic checkpoint every N windows, removed on finish.

    The checkpoint is taken *after* the window completes, so a restore
    resumes at an exact window boundary.  All file I/O goes through
    :class:`~repro.engine.state.CheckpointFile`: a run interrupted at
    any point leaves either the last complete snapshot or nothing —
    never a torn file, never a stray temp sibling.

    Consecutive snapshots of one run share most of their bytes (the
    header never changes; the observer states — carrying the whole
    trace-so-far — change only when the trace grows), so the observer
    serializes through a per-run
    :class:`~repro.engine.state.EngineStateSerializer` that re-dumps
    only the sections whose content moved since the previous write.
    """

    def __init__(
        self, checkpoint: CheckpointFile | str, every_windows: int = 1000
    ) -> None:
        if every_windows < 1:
            raise ValueError("every_windows must be >= 1")
        self.checkpoint = (
            checkpoint
            if isinstance(checkpoint, CheckpointFile)
            else CheckpointFile(checkpoint)
        )
        self.every_windows = every_windows
        self._serializer = EngineStateSerializer()

    def on_window(self, engine: "SteppingEngine") -> None:
        if engine.windows % self.every_windows == 0:
            with TRACER.span("checkpoint", window=engine.windows):
                self.checkpoint.write(
                    engine.checkpoint(), serializer=self._serializer
                )

    def on_finish(self, engine: "SteppingEngine") -> None:
        # A finished run needs no resume point; leaving one behind
        # would make a later --resume silently replay a stale batch.
        self.checkpoint.remove()


class SteadyStateGuard(Observer):
    """Requests an early stop once the AMB temperature converges.

    After ``min_windows`` windows, if the hottest AMB reading has moved
    less than ``tolerance_c`` over the last ``window_span`` windows,
    the guard calls :meth:`SteppingEngine.request_stop` and the run
    finalizes from its partial state.  Attach explicitly — an
    early-stopped run is *not* comparable to a completed one.
    """

    def __init__(
        self,
        tolerance_c: float = 0.01,
        window_span: int = 100,
        min_windows: int = 200,
    ) -> None:
        if window_span < 1:
            raise ValueError("window_span must be >= 1")
        self.tolerance_c = tolerance_c
        self.window_span = window_span
        self.min_windows = min_windows
        self._recent: list[float] = []
        self.stopped = False

    def on_window(self, engine: "SteppingEngine") -> None:
        self._recent.append(engine.sample.amb_c)
        if len(self._recent) > self.window_span:
            del self._recent[0]
        if (
            engine.windows >= self.min_windows
            and len(self._recent) == self.window_span
            and max(self._recent) - min(self._recent) <= self.tolerance_c
        ):
            self.stopped = True
            engine.request_stop()

    def state_dict(self) -> dict[str, Any]:
        return {"recent": list(self._recent), "stopped": self.stopped}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self._recent = [float(t) for t in state.get("recent", [])]
        self.stopped = bool(state.get("stopped", False))
