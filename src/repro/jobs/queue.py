"""The in-memory priority queue over the persistent job store.

``JobQueue`` is the single synchronization point of the jobs service:
submitters (HTTP handler threads) push records, the scheduler thread
pops the most urgent one, and every change to a job goes through
:meth:`JobQueue.transition`, which writes the new record before the job
takes it.  So the service never reports a state that is not on disk.

It is also the one answer to a write the disk refuses: the job stays
as it was and the caller gets :class:`~repro.errors.Unavailable` (a
503).  A move already decided goes through :meth:`JobQueue.settle`,
which holds a refused one for :meth:`JobQueue.retry_unwritten`.

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

import dataclasses
import heapq
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConflictError, NotFoundError, Unavailable
from repro.jobs.store import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    new_job_id,
)
from repro.obs.log import LOG

#: The moves a job may make, by its current status (None: a record not
#: yet submitted).  A terminal status has no way out.
MOVES = {
    None: frozenset({QUEUED}),
    QUEUED: frozenset({RUNNING, CANCELLED, FAILED}),
    RUNNING: frozenset({RUNNING, QUEUED, COMPLETED, FAILED, CANCELLED}),
}


#: The backoff a refused record write asks for, and the least time
#: between two tries of a held move.
_STORE_RETRY_AFTER_S = 5.0


def _now() -> float:
    return round(time.time(), 3)


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
        #: Record writes that failed (each left its job as it was).
        self.persist_failures = 0
        #: Decided moves the disk refused (job id -> settle() arguments).
        self._unwritten: dict[str, tuple] = {}
        self._retry_at = 0.0
        #: Called once per job on its entry to a terminal state, after
        #: the write; the scheduler installs its metrics hook here.
        self.on_terminal: Callable[[JobRecord], None] = lambda record: None

    # -- the one way a job changes -----------------------------------------

    def transition(
        self,
        record: JobRecord,
        status: str,
        event: str | None = None,
        detail: str = "",
        **fields,
    ) -> None:
        """Move ``record`` to ``status``, persisting first.

        The move must be in :data:`MOVES`, else
        :class:`~repro.errors.ConflictError`.  The new state (``fields``
        replaced, ``event`` appended, ``started_s`` stamped on the first
        entry to ``running`` and ``finished_s`` on entry to a terminal
        status) is written through the store; only after the write
        succeeds does ``record`` take it.  A failed write is logged as
        ``job.persist_failed``, counted in :attr:`persist_failures` and
        re-raised — an ``OSError`` as :class:`~repro.errors.Unavailable`
        — with ``record`` unchanged.  A move to ``queued``
        pushes the job and wakes the scheduler; a move to a terminal
        status runs :attr:`on_terminal`.
        """
        with self._lock:
            known = self._records.get(record.job_id) is record
            origin = record.status if known else None
            if status not in MOVES.get(origin, ()):
                raise ConflictError(
                    f"job {record.job_id} cannot move from {origin} to "
                    f"{status}",
                    status=origin,
                )
            if status == RUNNING and record.started_s is None:
                fields.setdefault("started_s", _now())
            if status in TERMINAL_STATES:
                fields.setdefault("finished_s", _now())
            new = dataclasses.replace(record, status=status, **fields)
            if event is not None:
                new.events = list(record.events)
                new.add_event(event, detail)
            try:
                self.store.save(new)
            except Exception as error:
                self.persist_failures += 1
                LOG.error(
                    "job.persist_failed",
                    job=record.job_id,
                    status=status,
                    error=f"{type(error).__name__}: {error}",
                )
                if isinstance(error, OSError):
                    raise Unavailable(
                        f"the job record could not be written ({error})",
                        reason="job_store_unavailable",
                        retry_after_s=_STORE_RETRY_AFTER_S,
                    ) from error
                raise
            vars(record).update(vars(new))
            self._records[record.job_id] = record
            if status == QUEUED:
                self._push(record)
        if status in TERMINAL_STATES:
            self.on_terminal(record)

    def _push(self, record: JobRecord) -> None:
        heapq.heappush(
            self._heap, (-record.priority, record.submit_seq, record.job_id)
        )
        self._lock.notify_all()

    # -- decided moves ------------------------------------------------------

    def settle(
        self, record: JobRecord, status: str, event: str, detail="", **fields
    ) -> None:
        """Make a decided move now, or hold it for :meth:`retry_unwritten`
        if the disk refuses it; drop it if another move got there first."""
        try:
            self.transition(record, status, event, detail, **fields)
        except ConflictError:
            return
        except Exception:  # noqa: BLE001 — counted and logged by transition
            with self._lock:
                self._unwritten[record.job_id] = (record, status, event, detail, fields)
                self._retry_at = time.monotonic() + _STORE_RETRY_AFTER_S

    def retry_unwritten(self) -> None:
        """Settle the held moves again, no sooner than
        ``_STORE_RETRY_AFTER_S`` after the last refusal."""
        if not self._unwritten or time.monotonic() < self._retry_at:
            return
        with self._lock:
            held, self._unwritten = list(self._unwritten.values()), {}
        for record, status, event, detail, fields in held:
            self.settle(record, status, event, detail, **fields)

    # -- recovery ----------------------------------------------------------

    def recover(self) -> dict:
        """Load disk state; requeue interrupted work.  Returns counts.

        Jobs persisted as ``running`` were in flight when the previous
        process died: they are settled back to ``queued`` with their
        checkpoints intact and a ``recovered`` event, so the scheduler
        resumes them from the last window-slice boundary rather than
        from scratch.  One whose requeue is held stays ``running``, as
        on disk, and is counted in neither ``requeued`` nor ``terminal``.
        A record that does not load is counted as ``unreadable``,
        logged by name, and left on disk for an operator to inspect.
        Records already in memory are left as they are.
        """
        counts = {"requeued": 0, "terminal": 0, "unreadable": 0}
        with self._lock:
            self.store.sweep_tmp()
            for path in sorted(self.store.root.glob("*.json")):
                if path.stem in self._records:
                    continue
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
                if record.status == QUEUED:
                    self._push(record)
                elif record.status == RUNNING:
                    self.settle(
                        record, QUEUED, "recovered",
                        f"requeued after restart with "
                        f"{len(record.cell_states)} cell checkpoint(s)",
                    )
                if record.status == QUEUED:
                    counts["requeued"] += 1
                elif record.terminal:
                    counts["terminal"] += 1
        return counts

    # -- producer side -----------------------------------------------------

    def submit(
        self, tenant: str, request: Any, *, priority: int = 0,
        cells_total: int = 0, trace: str | None = None,
    ) -> JobRecord:
        """Persist and enqueue a new job running the typed ``request``
        (one write); returns its record."""
        record = JobRecord(
            job_id=new_job_id(), tenant=tenant, request=request,
            priority=int(priority), created_s=_now(),
        )
        with self._lock:
            self.transition(
                record, QUEUED, "queued", f"priority {record.priority}",
                submit_seq=self._next_seq, cells_total=cells_total,
                trace=trace,
            )
            self._next_seq += 1
        return record

    # -- consumer side (the scheduler thread) ------------------------------

    def next_ready(self, timeout_s: float | None = None) -> JobRecord | None:
        """Pop the most urgent queued job, blocking up to ``timeout_s``.

        The popped record is still ``queued``: the scheduler's running
        transition is its first write, so a crash before it leaves the
        job queued on disk, and a cancel that lands first wins (the
        table refuses ``cancelled`` → ``running``).
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    record = self._records.get(job_id)
                    if record is not None and record.status == QUEUED:
                        return record
                if deadline is None:
                    self._lock.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._lock.wait(remaining)

    def has_queued_higher_than(self, priority: int) -> bool:
        """Is a strictly more urgent job waiting?  (Preemption probe.)"""
        with self._lock:
            return any(
                -neg_priority > priority
                and self._records[job_id].status == QUEUED
                for neg_priority, _, job_id in self._heap
            )

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

    def count(self, *statuses: str, tenant: str | None = None) -> int:
        """Jobs in any of ``statuses`` (of one ``tenant``, if given)."""
        with self._lock:
            return sum(
                1
                for r in self._records.values()
                if r.status in statuses and tenant in (None, r.tenant)
            )

    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediate when queued, cooperative when running.

        A queued job moves straight to ``cancelled``; a running one
        gets its flag set and stops at the next window-slice boundary.
        Terminal jobs are left as they are (idempotent).  A failed write
        raises (see :meth:`transition`) and leaves the job as it was.
        """
        with self._lock:
            record = self.require(job_id)
            if record.status == QUEUED:
                self.transition(
                    record, CANCELLED, "cancelled", "cancelled while queued",
                    cancel_requested=True,
                )
            elif record.status == RUNNING:
                self.transition(
                    record, RUNNING, "cancel_requested", cancel_requested=True
                )
            return record
