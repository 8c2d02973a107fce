"""Pluggable engine observers — the accounting that used to be inlined.

An :class:`Observer` is notified after every window its period makes
due (every window by default) and once at run end.  The two concrete
observers replace machinery that was previously copy-pasted across the
two simulator loops, and the engine attaches both, in this order, to
every run:

- :class:`TraceRecorder` — the trace-sampling accounting (resolution
  gating for Chapter 4, every-window logging for Chapter 5), owning
  the :class:`~repro.core.results.TemperatureTrace` the final result
  embeds.
- :class:`ProgressObserver` — publishes periodic run-progress
  snapshots to the process-wide broker
  (:data:`~repro.engine.progress.PROGRESS`), feeding job status, with
  the job counts of the engine's scheduler.

Checkpoints are no observer's job: a resumable run is stepped in
window slices by :func:`~repro.campaign.engine.run_cell`, whose
``on_slice`` callback receives the engine state at each boundary (the
CLI writes it to a :class:`~repro.engine.state.CheckpointFile`, a job
into its record), so every engine of a cell carries the same observers
and any of its checkpoints restores into any other.

Observers that carry run state (the recorder's trace and sampling
phase) declare it in ``STATE_FIELDS`` so engine checkpoints capture it
(see :mod:`repro.engine.codec`); stateless observers inherit the empty
table.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from repro.core.results import TemperatureTrace
from repro.engine.codec import Field, Float, Nested, Optional
from repro.engine.progress import PROGRESS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.stepping import SteppingEngine


class Observer:
    """Base observer: every hook is optional."""

    #: Checkpoint fields (none: a stateless observer).
    STATE_FIELDS: tuple[Field, ...] = ()
    #: The period of :meth:`on_window`: the engine calls it after each
    #: window whose count is a multiple of this (None: never).
    every_windows: int | None = 1

    def on_window(self, engine: "SteppingEngine") -> None:
        """Called after each due window (clock already advanced)."""

    def on_finish(self, engine: "SteppingEngine") -> None:
        """Called once when the run completes (after ``finalize``)."""


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
        # Disabled, it is never called and its state stays as built;
        # it stays attached, so the checkpoint's observer list keeps
        # its shape.
        self.every_windows = 1 if enabled else None
        self.trace = TemperatureTrace()
        self._since_s = inf

    # The whole trace-so-far rides in every snapshot: the final result
    # embeds the full trace, so a run resumed on another machine cannot
    # reconstruct it from anything less.  This makes checkpoint size
    # grow with recorded samples — time-sliced dispatch of trace-heavy
    # cells should use generous slices.  JSON has no Infinity, so the
    # pristine accumulator is written as null.
    STATE_FIELDS = (
        Field("since_s", "_since_s", Optional(Float(0.0), none=inf), None),
        Field("trace", "trace", Nested(), {}),
    )

    def on_window(self, engine: "SteppingEngine") -> None:
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


class ProgressObserver(Observer):
    """Publishes run progress to the process-wide broker.

    Emits every :attr:`every_windows` windows plus a final ``done``
    record; a run with a scheduler adds its finished and total jobs.
    Publishing is a no-op unless the surrounding code labeled the run
    with :meth:`~repro.engine.progress.ProgressBroker.track` (the jobs
    scheduler labels each job cell), so the engine attaches the
    observer unconditionally.
    """

    every_windows = 200

    def _publish(self, engine: "SteppingEngine", done: bool) -> None:
        snapshot = {
            "strategy": engine.strategy.kind,
            "windows": engine.windows,
            "now_s": engine.now_s,
            "done": done,
        }
        scheduler = engine.scheduler
        if scheduler is not None:
            snapshot["finished_jobs"] = scheduler.finished_jobs
            snapshot["total_jobs"] = scheduler.total_jobs
        PROGRESS.publish(snapshot)

    def on_window(self, engine: "SteppingEngine") -> None:
        self._publish(engine, done=False)

    def on_finish(self, engine: "SteppingEngine") -> None:
        self._publish(engine, done=True)
