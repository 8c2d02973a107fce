"""The jobs service: one object that owns the queue and runs it.

:class:`JobsManager` is what :class:`~repro.api.service.ReproService`
mounts under ``/v1/jobs`` and ``/metrics``: the
:class:`~repro.jobs.queue.JobQueue`, the tenant quotas, the metrics, and
one daemon thread draining the queue in priority order.  Each job
lowers through the same typed-request machinery the CLI and HTTP
routes use, so a job's result document is exactly what the equivalent
direct call would have produced — warm results are byte-identical.

Every cell runs on that thread through :func:`~repro.campaign.run_cell`,
in ``window_slice``-window slices of its
:class:`~repro.engine.SteppingEngine`.  At each slice boundary the
engine's checkpoint is persisted into the job record (crash
durability) and the scheduler checks for cancellation, a drain
request, and queued higher-priority work.  Preemption therefore lands
at window-slice granularity: the running job checkpoints, requeues
with its original submit sequence, and the urgent job takes the
thread.  Each of those writes is a
:meth:`~repro.jobs.queue.JobQueue.transition`; one the disk refuses
fails the job, and a refused ``failed`` (like a refused ``recovered``
requeue) waits in the queue's one map of unwritten moves, which the
top of the loop retries at most once per ``_STORE_RETRY_AFTER_S`` — so
a stuck job frees its tenant's slot without a restart.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any

from repro.api.client import cell_envelope
from repro.api.envelope import SCHEMA_VERSION
from repro.api.requests import request_from_dict, request_to_dict
from repro.campaign import run_cell
from repro.engine import EngineState
from repro.engine.codec import Count
from repro.engine.progress import PROGRESS
from repro.errors import (
    ConfigurationError,
    ConflictError,
    ReproError,
    Unavailable,
)
from repro.jobs.queue import JobQueue
from repro.obs.log import LOG
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.jobs.store import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
)
from repro.jobs.tenancy import QuotaManager

#: Request types whose result document is one bare envelope (matching
#: the CLI's single-envelope ``--json`` output).
_SINGLE_ENVELOPE_TYPES = frozenset({"simulate", "server"})

#: How long the idle loop waits for a ready job before it looks again
#: (and retries the moves that have not been written).
_POLL_S = 0.25

#: Per-cell slice outcomes (module-private control flow), each also
#: the event of the transition the job makes on it.
_DONE = "completed"
_PREEMPTED = "preempted"
_CANCELLED = "cancelled"
_DRAINED = "drained"


def job_progress_label(job_id: str, key: str) -> str:
    """The PROGRESS broker label for one job's cell.

    Job-scoped so two jobs computing the same cell key (or a job plus a
    direct API call) publish to distinct streams — per-job isolation.
    """
    return f"{job_id}/{key}"


class JobsManager:
    """The jobs service: queue, quotas, metrics and scheduler thread.

    The object :class:`~repro.api.service.ReproService` mounts: HTTP
    handlers call :meth:`submit_body` / :meth:`status_document` /
    :meth:`result_document` / :meth:`cancel` / :meth:`list_document`,
    and ``serve`` drives :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        jobs_dir: str,
        *,
        store: Any | None = None,
        window_slice: int = 500,
        quotas: QuotaManager | None = None,
    ) -> None:
        Count(minimum=1).decode(window_slice, "window_slice", self, ConfigurationError)
        self.window_slice = window_slice
        self.queue = JobQueue(jobs_dir)
        self.queue.on_terminal = self._on_terminal
        self.quotas = quotas if quotas is not None else QuotaManager()
        self._store = store
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> dict:
        """Recover persisted jobs, then start the scheduler thread (if
        it is not running).  Returns the recovery counts."""
        recovered = self.queue.recover()
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-job-scheduler", daemon=True
            )
            self._thread.start()
        return recovered

    def stop(self, *, drain: bool = True) -> None:
        """Stop the loop; with ``drain`` the running job checkpoints at
        its next window-slice boundary and parks ``queued``, so the next
        start (here or after a restart) resumes it warm."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=60.0 if drain else _POLL_S * 4)
            self._thread = None

    # -- the loop -----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.queue.retry_unwritten()
            record = self.queue.next_ready(timeout_s=_POLL_S)
            if record is None:
                continue
            try:
                self._execute_traced(record)
            except Exception as error:  # noqa: BLE001 — keep the loop alive
                message = (
                    str(error) if isinstance(error, ReproError)
                    else f"{type(error).__name__}: {error}"
                )
                self.queue.settle(record, FAILED, "failed", message, error=message)

    def _on_terminal(self, record: JobRecord) -> None:
        """The queue's hook on a job's entry to a terminal state."""
        if record.status == FAILED:
            LOG.error("job.failed", job=record.job_id, error=record.error)
        METRICS.counter_inc(
            "repro_jobs_finished_total",
            "Jobs reaching a terminal state",
            status=record.status,
            tenant=record.tenant,
        )
        for name, help_text, at_s in (
            ("repro_job_latency_seconds",
             "Submit-to-terminal latency per tenant", record.finished_s),
            ("repro_job_queue_wait_seconds",
             "Submit-to-first-start wait per tenant", record.started_s),
        ):
            if at_s and record.created_s:
                METRICS.observe(
                    name, help_text, max(0.0, at_s - record.created_s),
                    tenant=record.tenant,
                )
        # Eager progress hygiene: a terminal job's per-cell streams
        # will never update again, so a long-lived service drops them
        # now instead of leaning on the bounded-finished eviction.
        PROGRESS.forget_prefix(f"{record.job_id}/")

    # -- job execution ------------------------------------------------------

    def _execute_traced(self, record: JobRecord) -> None:
        """Run one job under the trace context captured at submit."""
        parsed = TRACER.parse_header(record.trace)
        with TRACER.activate(*parsed) if parsed else nullcontext():
            with TRACER.span("job", job=record.job_id, tenant=record.tenant):
                self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        cells = request_from_dict(record.request).cells()
        self.queue.transition(
            record, RUNNING, "started", cells_total=len(cells)
        )
        # A resumed/preempted job's completed cells are already in
        # record.results; continue from the first unfinished cell.
        state = self._run_cells(record, cells[record.cells_done:])
        status, detail, fields = {
            _PREEMPTED: (
                QUEUED,
                f"after {record.cells_done}/{record.cells_total} cell(s); "
                f"checkpoints kept",
                {"preemptions": record.preemptions + 1},
            ),
            _DRAINED: (QUEUED, "scheduler stopping", {}),
            _CANCELLED: (CANCELLED, "stopped at a slice boundary", {}),
            _DONE: (COMPLETED, "", {"cell_states": {}}),
        }[state]
        self.queue.transition(record, status, state, detail, **fields)
        if state == _PREEMPTED:
            METRICS.counter_inc(
                "repro_job_preemptions_total",
                "Jobs preempted by higher-priority submits",
            )
        elif state == _DONE:
            LOG.info(
                "job.completed", job=record.job_id, tenant=record.tenant,
                cells=record.cells_done,
            )

    def _interruption(self, record: JobRecord) -> str | None:
        """Which interruption applies at this boundary, if any."""
        if record.cancel_requested:
            return _CANCELLED
        if self._stop.is_set():
            return _DRAINED
        if self.queue.has_queued_higher_than(record.priority):
            return _PREEMPTED
        return None

    def _run_cells(self, record: JobRecord, cells: list) -> str:
        """Run the job's cells in order, each time-sliced on this thread."""
        for index, (spec, echo) in enumerate(cells, 1):
            state = self._run_one(record, spec, echo)
            if state != _DONE:
                return state
            interruption = self._interruption(record)
            if interruption is not None and index < len(cells):
                return interruption
        return _DONE

    def _run_one(self, record: JobRecord, spec: Any, echo: dict) -> str:
        """Run one cell to completion or to an interruption."""
        key = spec.key()
        resume = record.cell_states.get(key)
        if resume is not None:
            resume = EngineState.from_dict(resume)
            self.queue.transition(
                record, RUNNING, "cell_resumed",
                f"{key} from window {resume.windows}",
            )
        interruption = None

        def on_slice(state: EngineState) -> bool:
            # Window-slice boundary: persist the checkpoint (crash
            # durability), then honor cancel/drain/preempt.
            nonlocal interruption
            self.queue.transition(
                record, RUNNING,
                cell_states={**record.cell_states, key: state.to_dict()},
            )
            interruption = self._interruption(record)
            return interruption is not None

        with PROGRESS.track(job_progress_label(record.job_id, key)):
            outcome = run_cell(
                spec, self._store, resume=resume,
                window_slice=self.window_slice, on_slice=on_slice,
            )
        if outcome.payload is None:
            return interruption
        cache = "hit" if outcome.hit else "miss"
        self.queue.transition(
            record, RUNNING,
            results=[*record.results, cell_envelope(spec, outcome, echo).to_dict()],
            cells_done=record.cells_done + 1,
            cell_states={
                k: v for k, v in record.cell_states.items() if k != key
            },
        )
        METRICS.counter_inc(
            "repro_job_cells_total",
            "Cells served to jobs by cache state",
            cache=cache,
        )
        # The cell's progress stream is complete; prune it eagerly.
        PROGRESS.forget(job_progress_label(record.job_id, key))
        LOG.info(
            "job.cell_finished", job=record.job_id, cell=key, cache=cache,
            done=record.cells_done, total=record.cells_total,
        )
        return _DONE

    # -- submissions ---------------------------------------------------------

    def submit_body(self, body: dict) -> dict:
        """Validate and enqueue one ``POST /v1/jobs`` body.

        Raises :class:`~repro.jobs.tenancy.QuotaExceeded` (429),
        :class:`~repro.errors.ConfigurationError` (400) or, when the
        job record cannot be written, :class:`~repro.errors.Unavailable`
        (503).
        """
        if not isinstance(body, dict):
            raise ConfigurationError("job submit body must be a JSON object")
        unknown = set(body) - {"request", "tenant", "priority"}
        if unknown:
            raise ConfigurationError(
                f"unknown job submit fields {sorted(unknown)}"
            )
        raw_request = body.get("request")
        if not isinstance(raw_request, dict):
            raise ConfigurationError(
                "job submit body needs a 'request' object (a typed API "
                "request with its 'type' tag)"
            )
        tenant = body.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise ConfigurationError(
                "tenant must be a non-empty string (at most 64 chars)"
            )
        priority = body.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ConfigurationError("priority must be an integer")
        if not -100 <= priority <= 100:
            raise ConfigurationError("priority must be between -100 and 100")
        # Validate the request shape (and normalize it) before taking a
        # quota token or touching disk.
        request = request_from_dict(raw_request)
        if getattr(request, "jobs", 1) != 1:
            raise ConfigurationError(
                "job requests must have jobs=1: the scheduler runs "
                "their cells one at a time"
            )
        cells = request.cells()
        self.quotas.admit(
            tenant, self.queue.count(QUEUED, RUNNING, tenant=tenant)
        )
        # The submitter's trace context rides in the record's one
        # write, so the scheduler joins the same trace when it runs it.
        try:
            record = self.queue.submit(
                tenant, request_to_dict(request), priority=priority,
                cells_total=len(cells), trace=TRACER.propagation_header(),
            )
        except Unavailable:
            # Refused: the retry that Retry-After asks for must not
            # find the token spent.
            self.quotas.refund(tenant)
            raise
        METRICS.counter_inc(
            "repro_jobs_submitted_total", "Jobs accepted per tenant",
            tenant=tenant,
        )
        LOG.info(
            "job.submitted", job=record.job_id, tenant=tenant,
            priority=priority, cells=record.cells_total,
        )
        return self.job_document(record)

    # -- documents -----------------------------------------------------------

    def job_document(self, record: JobRecord, *, progress: bool = False) -> dict:
        """The ``/v1/jobs/<id>`` status document."""
        job: dict[str, Any] = {
            "id": record.job_id,
            "tenant": record.tenant,
            "priority": record.priority,
            "status": record.status,
            "request": dict(record.request),
            "created_s": record.created_s,
            "started_s": record.started_s,
            "finished_s": record.finished_s,
            "cells_total": record.cells_total,
            "cells_done": record.cells_done,
            "preemptions": record.preemptions,
            "events": list(record.events),
        }
        if record.error is not None:
            job["error"] = record.error
        if progress:
            prefix = f"{record.job_id}/"
            job["progress"] = {
                label[len(prefix):]: snap
                for label, snap in PROGRESS.snapshot().items()
                if label.startswith(prefix)
            }
        return {"schema_version": SCHEMA_VERSION, "job": job}

    def status_document(self, job_id: str) -> dict:
        """Status with live per-cell progress (``NotFoundError`` for an
        unknown job)."""
        return self.job_document(self.queue.require(job_id), progress=True)

    def result_document(self, job_id: str) -> dict:
        """The ``GET /v1/jobs/<id>/result`` document.

        A completed single-cell job answers with the bare envelope —
        byte-identical to the equivalent warm CLI ``--json`` — and
        multi-cell jobs with the standard results document.  Raises
        :class:`~repro.errors.NotFoundError` for an unknown job and
        :class:`~repro.errors.ConflictError` (with the job's
        ``status``) for one that has not completed.
        """
        record = self.queue.require(job_id)
        if record.status != COMPLETED:
            raise ConflictError(
                f"job {job_id} has no result (status {record.status!r})",
                status=record.status,
            )
        request_type = record.request.get("type")
        if request_type in _SINGLE_ENVELOPE_TYPES:
            return dict(record.results[0])
        return {
            "schema_version": SCHEMA_VERSION,
            "results": [dict(result) for result in record.results],
        }

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; returns the job document.  Raises
        :class:`~repro.errors.Unavailable` (503) when the cancel cannot
        be written."""
        record = self.queue.request_cancel(job_id)
        METRICS.counter_inc(
            "repro_job_cancels_total",
            "Cancel requests accepted",
            tenant=record.tenant,
        )
        LOG.info("job.cancel_requested", job=job_id, status=record.status)
        return self.job_document(record)

    def list_document(self, tenant: str | None = None) -> dict:
        """The ``GET /v1/jobs`` listing (newest first)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "jobs": [
                self.job_document(record)["job"]
                for record in self.queue.list_records(tenant)
            ],
        }

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        """The jobs section of ``/v1/healthz`` (job cells run on the
        scheduler thread: ``backend`` is always ``"serial"``)."""
        return {
            "queue_depth": self.queue.count(QUEUED),
            "running": self.queue.count(RUNNING),
            "backend": "serial",
            "persist_failures": self.queue.persist_failures,
        }

    def publish_usage_metrics(self) -> None:
        """Refresh the queue and per-tenant usage gauges (called per
        /metrics scrape)."""
        for tenant, usage in self.quotas.usage().items():
            METRICS.gauge_set(
                "repro_tenant_admitted_total",
                "Submits admitted per tenant since start",
                usage["admitted"],
                tenant=tenant,
            )
        METRICS.gauge_set(
            "repro_jobs_queue_depth", "Jobs waiting to run",
            self.queue.count(QUEUED),
        )
        METRICS.gauge_set(
            "repro_jobs_running", "Jobs currently executing",
            self.queue.count(RUNNING),
        )
