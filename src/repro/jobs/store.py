"""Persistent job records — one atomic JSON file per job.

The jobs service must survive being killed at any instant: a submit
that was acknowledged is never lost, and a job that was mid-cell
resumes from its last window-slice checkpoint instead of restarting.
Both properties come from the routine the result cache and the
checkpoint files publish with too
(:func:`~repro.engine.state.publish_atomic`): every record is written
to a temp file in the same directory and published with one atomic
``os.replace``.  A reader therefore sees either the previous complete
record or the new complete record, never a torn write.  The one writer
is :meth:`~repro.jobs.queue.JobQueue.transition`, which saves a job's
new state before the job takes it in memory.

The record carries everything needed to resume: the original typed
request, per-cell :class:`~repro.engine.EngineState` checkpoints
(persisted at every window-slice boundary while the job runs), the
envelopes of cells already completed, and an append-only event log
(queued/started/preempted/recovered/...) that doubles as the job's
audit trail.
"""

from __future__ import annotations

import json
import math
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api.requests import AnyRequest
from repro.engine.codec import (
    Count,
    Flag,
    Float,
    ListOf,
    Object,
    Optional,
    Record,
    Text,
    decode_record,
    domain,
    state_dict,
)
from repro.engine.state import EngineState, publish_atomic
from repro.errors import CheckpointError, ConfigurationError

#: On-disk record format tag (checked on load).
RECORD_FORMAT = "repro-job-record"
#: Record layout version; bump on incompatible layout changes.
RECORD_VERSION = 1

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})
#: Every valid state.
JOB_STATES = frozenset({QUEUED, RUNNING}) | TERMINAL_STATES

#: Events kept per record (oldest dropped first) so a pathological
#: preemption ping-pong cannot grow a record without bound.
_MAX_EVENTS = 200

def new_job_id() -> str:
    """A fresh, URL-safe job identifier."""
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class JobRecord:
    """The full persistent state of one submitted job.

    Every field is declared for the codec, so a record with a mistyped
    field is refused when it is read back, like one with an unknown
    status; the request decodes through its request class and each
    checkpoint as an :class:`~repro.engine.EngineState`.
    """

    job_id: str = domain(Text())
    tenant: str = domain(Text())
    request: Any = domain(AnyRequest())
    priority: int = domain(Count(minimum=-math.inf), 0)
    status: str = domain(Text(JOB_STATES), QUEUED, required=True)
    #: Monotonic per-queue sequence number: FIFO order within a
    #: priority band.  A preempted job keeps its original number, so it
    #: resumes ahead of later same-priority arrivals.
    submit_seq: int = domain(Count(), 0)
    created_s: float = domain(Float(), 0.0)
    started_s: float | None = domain(Optional(Float()), None)
    finished_s: float | None = domain(Optional(Float()), None)
    cells_total: int = domain(Count(), 0)
    cells_done: int = domain(Count(), 0)
    #: Cache key -> EngineState checkpoint for cells that were
    #: interrupted mid-run (preemption, SIGTERM drain, crash).
    cell_states: dict[str, EngineState] = domain(
        Object(Record(EngineState)), dict
    )
    #: Envelope dicts of completed cells, in spec order.
    results: list[dict] = domain(ListOf(Object()), list)
    #: How many times the job was preempted by higher-priority work.
    preemptions: int = domain(Count(), 0)
    #: Cooperative-cancel flag checked at window-slice boundaries.
    cancel_requested: bool = domain(Flag(), False)
    error: str | None = domain(Optional(Text()), None)
    #: The submitter's trace context (``trace_id:span_id`` header
    #: value), so the scheduler joins the submit's trace when the job
    #: runs — possibly after a process restart.
    trace: str | None = domain(Optional(Text()), None)
    events: list[dict] = domain(ListOf(Object()), list)

    def add_event(self, event: str, detail: str = "") -> None:
        """Append to the audit log (bounded; oldest evicted)."""
        entry: dict[str, Any] = {"at_s": round(time.time(), 3), "event": event}
        if detail:
            entry["detail"] = detail
        self.events.append(entry)
        del self.events[: max(0, len(self.events) - _MAX_EVENTS)]

    @property
    def terminal(self) -> bool:
        """True once the job can never run again."""
        return self.status in TERMINAL_STATES

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready); inverse of :meth:`from_dict`."""
        return state_dict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "JobRecord":
        """Rebuild a record from its dict form; a missing or mistyped
        field raises :class:`~repro.errors.CheckpointError`."""
        return decode_record(cls, raw, "job record")


@dataclass(frozen=True, kw_only=True)
class StoredJob:
    """The file one job record is saved as: its format tag, its layout
    version (another version reads as unreadable) and the record."""

    format: str = domain(Text((RECORD_FORMAT,)), RECORD_FORMAT, required=True)
    version: int = domain(
        Count(RECORD_VERSION + 1, RECORD_VERSION), RECORD_VERSION, required=True
    )
    job: JobRecord = domain(Record(JobRecord))


class JobStore:
    """A directory of atomically written job records.

    One ``<job_id>.json`` per job; writes go to a process/thread-unique
    temp name and publish with ``os.replace``, so a record on disk is
    always a complete JSON document (the property ``recover()`` relies
    on after a crash).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        if "/" in job_id or job_id.startswith("."):
            raise ConfigurationError(f"malformed job id {job_id!r}")
        return self.root / f"{job_id}.json"

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record`` (publish-or-nothing); a failed
        write raises and leaves no tmp file behind.  Only
        :meth:`~repro.jobs.queue.JobQueue.transition` calls it."""
        path = self._path(record.job_id)
        document = state_dict(StoredJob(job=record))
        publish_atomic(str(path), json.dumps(document, sort_keys=True).encode())

    def load(self, job_id: str) -> JobRecord | None:
        """The stored record, or None when absent/unreadable."""
        path = self._path(job_id)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            return decode_record(StoredJob, raw, "job record").job
        except CheckpointError:
            return None

    def sweep_tmp(self) -> int:
        """Remove leftover temp files from crashed writers."""
        removed = 0
        for tmp in self.root.glob("*.json.tmp.*"):
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        return removed
