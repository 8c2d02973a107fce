"""Batch-job model of the paper's long-running experiments.

"For each workload W, its corresponding batch job J mixes multiple copies
(fifty in our experiments) of every application Ai contained in the
workload.  When one application finishes its execution and releases its
occupied processor core, a waiting application is assigned to the core in
a round-robin way." (§4.3.2)

:class:`BatchScheduler` implements exactly that: a queue interleaving the
copies round-robin over the mix's applications, core slots that hold one
job each, and slot refill on completion.  The number of *simulated* copies
is a parameter (the benchmark suite defaults to a scaled-down count so it
finishes on a laptop; shapes are scale-invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.codec import Count, Field, Float, ListOf, Optional, Row
from repro.errors import CheckpointError, SchedulingError
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import AppProfile


@dataclass
class BatchJob:
    """One copy of an application inside a batch job."""

    app: AppProfile
    copy_index: int
    #: The application's position in the mix (how checkpoints name it).
    app_index: int = 0
    remaining_instructions: float = field(init=False)

    def __post_init__(self) -> None:
        self.remaining_instructions = self.app.instructions


class _JobRef(Row):
    """A job in a checkpoint: ``[app index in the mix, copy index,
    remaining instructions]``, so the state crosses process boundaries
    without serializing :class:`AppProfile` objects."""

    def __init__(self) -> None:
        super().__init__(
            Count(lambda scheduler: len(scheduler._mix.apps)),
            Count(lambda scheduler: scheduler._copies),
            Float(0.0),
        )

    def encode(self, job: BatchJob) -> list:
        return [job.app_index, job.copy_index, job.remaining_instructions]

    def decode(
        self, value, path: str, scheduler: BatchScheduler, error: type
    ) -> BatchJob:
        index, copy_index, remaining = super().decode(value, path, scheduler, error)
        job = BatchJob(scheduler._mix.apps[index], copy_index, index)
        job.remaining_instructions = remaining
        return job


_JOB = _JobRef()


class BatchScheduler:
    """Round-robin batch scheduler over a fixed number of core slots.

    Args:
        mix: the workload mix.
        copies: copies of every application in the batch.
        cores: number of core slots.
    """

    STATE_FIELDS = (
        Field("queue", "_queue", ListOf(_JOB)),
        Field("slots", "_slots", ListOf(Optional(_JOB))),
        Field("finished", "_finished", ListOf(_JOB)),
    )

    def __init__(self, mix: WorkloadMix, copies: int, cores: int) -> None:
        if copies < 1:
            raise SchedulingError("need at least one copy of each application")
        if cores < 1:
            raise SchedulingError("need at least one core slot")
        self._mix = mix
        self._copies = copies
        self._cores = cores
        # Interleave copies round-robin over applications:
        # A1#0, A2#0, ..., An#0, A1#1, A2#1, ...
        self._queue: list[BatchJob] = [
            BatchJob(app=app, copy_index=copy, app_index=index)
            for copy in range(copies)
            for index, app in enumerate(mix.apps)
        ]
        self._total_jobs = len(self._queue)
        self._slots: list[BatchJob | None] = [None] * cores
        self._finished: list[BatchJob] = []
        self._fill_slots()

    def _fill_slots(self) -> None:
        for index in range(self._cores):
            if self._slots[index] is None and self._queue:
                self._slots[index] = self._queue.pop(0)

    @property
    def cores(self) -> int:
        """Number of core slots."""
        return self._cores

    @property
    def total_jobs(self) -> int:
        """Total job copies in the batch."""
        return self._total_jobs

    @property
    def finished_jobs(self) -> int:
        """Jobs completed so far."""
        return len(self._finished)

    @property
    def done(self) -> bool:
        """Whether every job has completed."""
        return len(self._finished) == self._total_jobs

    def job_at(self, slot: int) -> BatchJob | None:
        """The job currently occupying a slot (None when drained)."""
        return self._slots[slot]

    def occupied_slots(self) -> list[int]:
        """Slots currently holding a job."""
        return [i for i, job in enumerate(self._slots) if job is not None]

    def running_apps(self, active_slots: list[int]) -> dict[int, AppProfile]:
        """Map of slot -> application for the slots that execute now."""
        result: dict[int, AppProfile] = {}
        for slot in active_slots:
            if not 0 <= slot < self._cores:
                raise SchedulingError(f"slot {slot} out of range")
            job = self._slots[slot]
            if job is not None:
                result[slot] = job.app
        return result

    def advance(self, progress: dict[int, float]) -> Sequence[BatchJob]:
        """Retire per-slot instruction progress; refill emptied slots.

        Args:
            progress: slot -> instructions retired this interval.

        Returns:
            Jobs that finished during the interval (an empty tuple when
            none did, so the common window allocates nothing).

        A job finishes when its remaining count reaches zero or below;
        it is then clamped to ``0.0``, the bits ``max(0.0, r - i)``
        gives.  Negative or NaN progress on a running job, or positive
        progress on an empty slot, raises :class:`SchedulingError`.
        """
        finished: list[BatchJob] | None = None
        slots = self._slots
        for slot, instructions in progress.items():
            job = slots[slot]
            if job is None:
                if instructions > 0:
                    raise SchedulingError(f"progress reported for empty slot {slot}")
                continue
            if not instructions >= 0.0:
                raise SchedulingError(
                    f"cannot advance by {instructions!r} instructions"
                )
            remaining = job.remaining_instructions - instructions
            if remaining > 0.0:
                job.remaining_instructions = remaining
                continue
            job.remaining_instructions = 0.0
            if finished is None:
                finished = []
            finished.append(job)
            self._finished.append(job)
            slots[slot] = None
        if finished is None:
            return ()
        self._fill_slots()
        return finished

    def remaining_instructions(self) -> float:
        """Instructions left across slots and queue (progress metric)."""
        in_slots = sum(
            job.remaining_instructions for job in self._slots if job is not None
        )
        in_queue = sum(job.remaining_instructions for job in self._queue)
        return in_slots + in_queue

    # -- checkpoint support ------------------------------------------------

    def _state_hook(self, values: dict, path: str) -> dict:
        """The batch's shape: one entry per core slot, every job
        accounted for, and instructions left on each job that has not
        finished.  A scheduler restores state written by one built with
        the same (mix, copies, cores)."""
        slots = values["_slots"]
        if len(slots) != self._cores:
            raise CheckpointError(
                f"{path}.slots must list {self._cores} core slots, got {len(slots)}"
            )
        for key in ("queue", "slots"):
            for index, job in enumerate(values[f"_{key}"]):
                if job is not None and not job.remaining_instructions:
                    raise CheckpointError(
                        f"{path}.{key}.{index} has no instructions remaining"
                    )
        jobs = len(values["_queue"]) + len(values["_finished"])
        if jobs + sum(1 for job in slots if job is not None) != self._total_jobs:
            raise CheckpointError(
                f"{path} job count does not match this batch "
                f"({self._total_jobs} jobs expected)"
            )
        return values
