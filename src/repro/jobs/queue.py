"""The in-memory priority queue over the persistent job store.

``JobQueue`` is the single synchronization point of the jobs service:
submitters (HTTP handler threads) push records, the scheduler thread
pops the most urgent one, and every mutation is written through to the
:class:`~repro.jobs.store.JobStore` before it is observable — so the
on-disk state is always at least as advanced as what any client was
told.

Ordering is strict priority (higher number = more urgent), FIFO within
a priority band via the monotonically increasing ``submit_seq``.  A
preempted job is requeued with its *original* sequence number, so it
resumes ahead of later arrivals at the same priority instead of going
to the back of the line.

``recover()`` is the crash-resume path: records found on disk in
``running`` state belonged to a scheduler that died mid-job; they are
moved back to ``queued`` (keeping their per-cell checkpoints) and
re-offered to the new scheduler.
"""

from __future__ import annotations

import heapq
import threading
import time
from pathlib import Path

from repro.errors import ConfigurationError, NotFoundError
from repro.jobs.store import (
    CANCELLED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
)
from repro.obs.log import LOG


class JobQueue:
    """Thread-safe priority queue of :class:`JobRecord`, disk-backed."""

    def __init__(self, root: str | Path) -> None:
        self.store = JobStore(root)
        self._lock = threading.Condition()
        self._records: dict[str, JobRecord] = {}
        #: Min-heap of (-priority, submit_seq, job_id); stale entries
        #: (cancelled while queued) are skipped at pop time.
        self._heap: list[tuple[int, int, str]] = []
        self._next_seq = 0

    # -- recovery ----------------------------------------------------------

    def recover(self) -> dict:
        """Load disk state; requeue interrupted work.  Returns counts.

        Jobs persisted as ``running`` were in flight when the previous
        process died: they go back to ``queued`` with their checkpoints
        intact and a ``recovered`` event, so the scheduler resumes them
        from the last window-slice boundary rather than from scratch.
        A record that does not load is counted as ``unreadable``,
        logged by name, and left on disk for an operator to inspect.
        """
        counts = {"requeued": 0, "terminal": 0, "unreadable": 0}
        with self._lock:
            self.store.sweep_tmp()
            for path in sorted(self.store.root.glob("*.json")):
                record = self.store.load(path.stem)
                if record is None:
                    counts["unreadable"] += 1
                    LOG.warning(
                        "jobs.record_unreadable",
                        f"skipping unreadable job record {path}",
                        path=str(path),
                    )
                    continue
                self._records[record.job_id] = record
                self._next_seq = max(self._next_seq, record.submit_seq + 1)
                if record.status == RUNNING:
                    record.status = QUEUED
                    record.add_event(
                        "recovered",
                        f"requeued after restart with "
                        f"{len(record.cell_states)} cell checkpoint(s)",
                    )
                    self.store.save(record)
                if record.status == QUEUED:
                    heapq.heappush(
                        self._heap,
                        (-record.priority, record.submit_seq, record.job_id),
                    )
                    counts["requeued"] += 1
                else:
                    counts["terminal"] += 1
            self._lock.notify_all()
        return counts

    # -- producer side -----------------------------------------------------

    def submit(
        self, tenant: str, request: dict, *, priority: int = 0, job_id: str | None = None
    ) -> JobRecord:
        """Persist and enqueue a new job; returns its record."""
        from repro.jobs.store import new_job_id

        record = JobRecord(
            job_id=job_id or new_job_id(),
            tenant=tenant,
            request=dict(request),
            priority=int(priority),
            created_s=round(time.time(), 3),
        )
        with self._lock:
            if record.job_id in self._records:
                raise ConfigurationError(
                    f"duplicate job id {record.job_id!r}"
                )
            record.submit_seq = self._next_seq
            self._next_seq += 1
            record.add_event("queued", f"priority {record.priority}")
            self.store.save(record)
            self._records[record.job_id] = record
            heapq.heappush(
                self._heap, (-record.priority, record.submit_seq, record.job_id)
            )
            self._lock.notify_all()
        return record

    # -- consumer side (the scheduler thread) ------------------------------

    def next_ready(self, timeout_s: float | None = None) -> JobRecord | None:
        """Pop the most urgent queued job, blocking up to ``timeout_s``.

        The popped record is marked ``running`` in memory.  The
        scheduler persists that mark before the job's first slice
        (where a failed write fails the one job, not the scheduler
        thread), so a crash between pop and first slice still recovers
        the job.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            while True:
                record = self._pop_queued_locked()
                if record is not None:
                    record.status = RUNNING
                    if record.started_s is None:
                        record.started_s = round(time.time(), 3)
                    record.add_event("started")
                    return record
                if deadline is None:
                    self._lock.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._lock.wait(remaining)

    def _pop_queued_locked(self) -> JobRecord | None:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            record = self._records.get(job_id)
            if record is not None and record.status == QUEUED:
                return record
        return None

    def requeue(self, record: JobRecord, *, event: str, detail: str = "") -> None:
        """Put an interrupted job back in line (original submit_seq)."""
        with self._lock:
            record.status = QUEUED
            record.add_event(event, detail)
            self.store.save(record)
            heapq.heappush(
                self._heap, (-record.priority, record.submit_seq, record.job_id)
            )
            self._lock.notify_all()

    def persist(self, record: JobRecord) -> None:
        """Write a record's current state through to disk."""
        with self._lock:
            self.store.save(record)

    def has_queued_higher_than(self, priority: int) -> bool:
        """Is a strictly more urgent job waiting?  (Preemption probe.)"""
        with self._lock:
            for neg_priority, _, job_id in self._heap:
                record = self._records.get(job_id)
                if record is None or record.status != QUEUED:
                    continue
                if -neg_priority > priority:
                    return True
            return False

    # -- inspection / control ----------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        """The record for ``job_id`` (live object; treat as read-only)."""
        with self._lock:
            return self._records.get(job_id)

    def require(self, job_id: str) -> JobRecord:
        """Like :meth:`get`, but an unknown job is a ``NotFoundError``."""
        record = self.get(job_id)
        if record is None:
            raise NotFoundError(f"unknown job {job_id!r}")
        return record

    def list_records(self, tenant: str | None = None) -> list[JobRecord]:
        """Every known record, newest submit first."""
        with self._lock:
            records = [
                record
                for record in self._records.values()
                if tenant is None or record.tenant == tenant
            ]
        return sorted(records, key=lambda r: -r.submit_seq)

    def depth(self) -> int:
        """Number of jobs currently waiting to run."""
        with self._lock:
            return sum(
                1 for r in self._records.values() if r.status == QUEUED
            )

    def running_count(self) -> int:
        """Number of jobs currently executing."""
        with self._lock:
            return sum(
                1 for r in self._records.values() if r.status == RUNNING
            )

    def active_count(self, tenant: str) -> int:
        """Queued + running jobs for one tenant (the quota basis)."""
        with self._lock:
            return sum(
                1
                for r in self._records.values()
                if r.tenant == tenant and r.status in (QUEUED, RUNNING)
            )

    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediate when queued, cooperative when running.

        A queued job flips straight to ``cancelled``; a running one
        gets its flag set and stops at the next window-slice boundary.
        Terminal jobs are left as they are (idempotent).
        """
        with self._lock:
            record = self.require(job_id)
            if record.terminal:
                return record
            record.cancel_requested = True
            if record.status == QUEUED:
                record.status = CANCELLED
                record.finished_s = round(time.time(), 3)
                record.add_event("cancelled", "cancelled while queued")
            else:
                record.add_event("cancel_requested")
            self.store.save(record)
            return record

    def cancel_requested(self, job_id: str) -> bool:
        """Has a cancel been requested for this job?"""
        with self._lock:
            record = self._records.get(job_id)
            return bool(record and record.cancel_requested)
