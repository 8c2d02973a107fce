"""The scheduler loop and the service-facing jobs manager.

:class:`JobScheduler` is one daemon thread draining the
:class:`~repro.jobs.queue.JobQueue` in priority order.  Each job lowers
through the same typed-request machinery the CLI and HTTP routes use,
so a job's result document is exactly what the equivalent direct call
would have produced — warm results are byte-identical.

Every cell runs on this thread through
:func:`~repro.campaign.run_cell`, in ``window_slice``-window slices of
its :class:`~repro.engine.SteppingEngine`.  At each slice boundary the
engine's checkpoint is persisted into the job record (crash
durability) and the scheduler checks for cancellation, a drain
request, and queued higher-priority work.  Preemption therefore lands
at window-slice granularity: the running job checkpoints, requeues
with its original submit sequence, and the urgent job takes the
thread.

:class:`JobsManager` bundles queue + scheduler + quotas + metrics into
the object :class:`~repro.api.service.ReproService` mounts under
``/v1/jobs`` and ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.api.client import _cell_echo, cell_envelope
from repro.api.envelope import SCHEMA_VERSION
from repro.api.requests import (
    CampaignRequest,
    CompareRequest,
    ScenarioRequest,
    request_from_dict,
    request_to_dict,
)
from repro.campaign import run_cell
from repro.engine import EngineState
from repro.engine.progress import PROGRESS
from repro.errors import ConfigurationError, ConflictError, ReproError
from repro.jobs.queue import JobQueue
from repro.obs.log import LOG
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import TRACER
from repro.jobs.store import (
    CANCELLED,
    COMPLETED,
    FAILED,
    JobRecord,
)
from repro.jobs.tenancy import QuotaManager

#: Request types whose result document is one bare envelope (matching
#: the CLI's single-envelope ``--json`` output).
_SINGLE_ENVELOPE_TYPES = frozenset({"simulate", "server"})

#: Per-cell slice outcomes (module-private control flow).
_DONE = "done"
_PREEMPTED = "preempted"
_CANCELLED = "cancelled"
_DRAINED = "drained"


def job_progress_label(job_id: str, key: str) -> str:
    """The PROGRESS broker label for one job's cell.

    Job-scoped so two jobs computing the same cell key (or a job plus a
    direct API call) publish to distinct streams — per-job isolation.
    """
    return f"{job_id}/{key}"


def expand_job_request(request: Any) -> tuple[list, list[dict]]:
    """Lower a typed request to ``(specs, request echoes)``.

    The echoes are exactly what the equivalent direct client call would
    embed in each envelope, which is what keeps warm job results
    byte-identical to warm CLI ``--json`` output.
    """
    if isinstance(request, CompareRequest):
        cells = request.cell_requests()
        return (
            [cell.spec() for cell in cells],
            [request_to_dict(cell) for cell in cells],
        )
    if isinstance(request, (CampaignRequest, ScenarioRequest)):
        if request.jobs != 1:
            raise ConfigurationError(
                "job requests must have jobs=1: the scheduler runs "
                "their cells one at a time"
            )
        _, specs = request.cells()
        return specs, [_cell_echo(spec) for spec in specs]
    # simulate / server
    return [request.spec()], [request_to_dict(request)]


class JobScheduler:
    """One daemon thread executing queued jobs in priority order."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        store: Any | None = None,
        window_slice: int = 500,
        metrics: MetricsRegistry | None = None,
        poll_s: float = 0.25,
    ) -> None:
        if window_slice < 1:
            raise ConfigurationError("window_slice must be >= 1")
        self.queue = queue
        self._store = store
        self.window_slice = window_slice
        self.metrics = metrics if metrics is not None else METRICS
        self._poll_s = poll_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-job-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, *, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Stop the loop; with ``drain`` the in-flight slice finishes.

        The running job (if any) checkpoints at its next window-slice
        boundary and goes back to the queue in ``queued`` state, so a
        subsequent start — in this process or after a restart — resumes
        it warm.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s if drain else self._poll_s * 4)
            self._thread = None

    # -- the loop -----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.next_ready(timeout_s=self._poll_s)
            self._publish_queue_gauges()
            if record is None:
                continue
            try:
                self._execute_traced(record)
            except ReproError as error:
                self._fail(record, str(error))
            except Exception as error:  # noqa: BLE001 — keep the loop alive
                self._fail(record, f"{type(error).__name__}: {error}")
            finally:
                self._publish_queue_gauges()

    def _publish_queue_gauges(self) -> None:
        self.metrics.gauge_set(
            "repro_jobs_queue_depth",
            "Jobs waiting to run",
            self.queue.depth(),
        )
        self.metrics.gauge_set(
            "repro_jobs_running",
            "Jobs currently executing",
            self.queue.running_count(),
        )

    def _fail(self, record: JobRecord, message: str) -> None:
        record.status = FAILED
        record.error = message
        record.finished_s = round(time.time(), 3)
        record.add_event("failed", message)
        self.queue.persist(record)
        self._observe_finished(record)
        LOG.error("job.failed", job=record.job_id, error=message)

    def _observe_finished(self, record: JobRecord) -> None:
        self.metrics.counter_inc(
            "repro_jobs_finished_total",
            "Jobs reaching a terminal state",
            status=record.status,
            tenant=record.tenant,
        )
        if record.finished_s and record.created_s:
            self.metrics.observe(
                "repro_job_latency_seconds",
                "Submit-to-terminal latency per tenant",
                max(0.0, record.finished_s - record.created_s),
                tenant=record.tenant,
            )
        if record.started_s and record.created_s:
            self.metrics.observe(
                "repro_job_queue_wait_seconds",
                "Submit-to-first-start wait per tenant",
                max(0.0, record.started_s - record.created_s),
                tenant=record.tenant,
            )
        # Eager /v1/progress hygiene: a terminal job's per-cell streams
        # will never update again, so a long-lived service drops them
        # now instead of leaning on the bounded-finished eviction.
        PROGRESS.forget_prefix(f"{record.job_id}/")

    # -- job execution ------------------------------------------------------

    def _execute_traced(self, record: JobRecord) -> None:
        """Run one job under the trace context captured at submit."""
        parsed = TRACER.parse_header(getattr(record, "trace", None))
        if parsed is None:
            with TRACER.span("job", job=record.job_id, tenant=record.tenant):
                self._execute(record)
            return
        with TRACER.activate(*parsed):
            with TRACER.span("job", job=record.job_id, tenant=record.tenant):
                self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        request = request_from_dict(record.request)
        specs, echoes = expand_job_request(request)
        record.cells_total = len(specs)
        # A resumed/preempted job's completed cells are already in
        # record.results; continue from the first unfinished spec.
        start = min(record.cells_done, len(specs))
        state = self._run_cells(record, specs[start:], echoes[start:])
        if state == _PREEMPTED:
            record.preemptions += 1
            self.metrics.counter_inc(
                "repro_job_preemptions_total",
                "Jobs preempted by higher-priority submits",
            )
            self.queue.requeue(
                record,
                event="preempted",
                detail=f"after {record.cells_done}/{record.cells_total} "
                f"cell(s); checkpoints kept",
            )
            return
        if state == _DRAINED:
            self.queue.requeue(
                record, event="drained", detail="scheduler stopping"
            )
            return
        if state == _CANCELLED:
            record.status = CANCELLED
            record.finished_s = round(time.time(), 3)
            record.add_event("cancelled", "stopped at a slice boundary")
            self.queue.persist(record)
            self._observe_finished(record)
            return
        record.status = COMPLETED
        record.finished_s = round(time.time(), 3)
        record.cell_states.clear()
        record.add_event("completed")
        self.queue.persist(record)
        self._observe_finished(record)
        LOG.info(
            "job.completed",
            job=record.job_id,
            tenant=record.tenant,
            cells=record.cells_done,
        )

    def _interruption(self, record: JobRecord) -> str | None:
        """Which interruption applies at this boundary, if any."""
        if self.queue.cancel_requested(record.job_id):
            return _CANCELLED
        if self._stop.is_set():
            return _DRAINED
        if self.queue.has_queued_higher_than(record.priority):
            return _PREEMPTED
        return None

    def _run_cells(
        self, record: JobRecord, specs: list, echoes: list[dict]
    ) -> str:
        """Run the job's cells in order, each time-sliced on this thread."""
        for spec, echo in zip(specs, echoes):
            state = self._run_one(record, spec, echo)
            if state != _DONE:
                return state
            interruption = self._interruption(record)
            if interruption is not None and spec is not specs[-1]:
                return interruption
        return _DONE

    def _run_one(self, record: JobRecord, spec: Any, echo: dict) -> str:
        """Run one cell to completion or to an interruption."""
        key = spec.key()
        resume = record.cell_states.get(key)
        if resume is not None:
            resume = EngineState.from_dict(resume)
            record.add_event(
                "cell_resumed", f"{key} from window {resume.windows}"
            )
        interruption = None

        def on_slice(state: EngineState) -> bool:
            # Window-slice boundary: persist the checkpoint (crash
            # durability), then honor cancel/drain/preempt.
            nonlocal interruption
            record.cell_states[key] = state.to_dict()
            self.queue.persist(record)
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
        record.results.append(cell_envelope(spec, outcome, echo).to_dict())
        record.cells_done += 1
        record.cell_states.pop(key, None)
        self.queue.persist(record)
        self.metrics.counter_inc(
            "repro_job_cells_total",
            "Cells served to jobs by cache state",
            cache=cache,
        )
        # The cell's progress stream is complete; prune it eagerly.
        PROGRESS.forget(job_progress_label(record.job_id, key))
        LOG.info(
            "job.cell_finished",
            job=record.job_id,
            cell=key,
            cache=cache,
            done=record.cells_done,
            total=record.cells_total,
        )
        return _DONE


class JobsManager:
    """Queue + scheduler + quotas + metrics behind one façade.

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
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else METRICS
        self.queue = JobQueue(jobs_dir)
        self.quotas = quotas if quotas is not None else QuotaManager()
        self.scheduler = JobScheduler(
            self.queue,
            store=store,
            window_slice=window_slice,
            metrics=self.metrics,
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> dict:
        """Recover persisted jobs, then start scheduling.  Returns counts."""
        recovered = self.queue.recover()
        self.scheduler.start()
        return recovered

    def stop(self, *, drain: bool = True) -> None:
        """Stop scheduling; with ``drain`` the in-flight slice finishes."""
        self.scheduler.stop(drain=drain)

    # -- submissions ---------------------------------------------------------

    def submit_body(self, body: dict) -> dict:
        """Validate and enqueue one ``POST /v1/jobs`` body.

        Raises :class:`~repro.jobs.tenancy.QuotaExceeded` (429) or
        :class:`~repro.errors.ConfigurationError` (400).
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
        specs, _ = expand_job_request(request)
        self.quotas.admit(tenant, self.queue.active_count(tenant))
        record = self.queue.submit(
            tenant, request_to_dict(request), priority=priority
        )
        record.cells_total = len(specs)
        # Capture the submitter's trace context so the scheduler thread
        # joins the same trace when the job eventually runs.
        record.trace = TRACER.propagation_header()
        self.queue.persist(record)
        self.metrics.counter_inc(
            "repro_jobs_submitted_total",
            "Jobs accepted per tenant",
            tenant=tenant,
        )
        LOG.info(
            "job.submitted",
            job=record.job_id,
            tenant=tenant,
            priority=priority,
            cells=record.cells_total,
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
        """Status with live per-cell progress.

        Raises :class:`~repro.errors.NotFoundError` for an unknown job.
        """
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
        """Request cancellation; returns the job document."""
        record = self.queue.request_cancel(job_id)
        self.metrics.counter_inc(
            "repro_job_cancels_total",
            "Cancel requests accepted",
            tenant=record.tenant,
        )
        if record.terminal:
            # A queued job cancels immediately (no scheduler pass will
            # ever observe it) — prune its progress streams here.
            PROGRESS.forget_prefix(f"{job_id}/")
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
        """The jobs section of ``/v1/healthz``.

        ``backend`` is always ``"serial"``: job cells run on the
        scheduler thread.
        """
        return {
            "queue_depth": self.queue.depth(),
            "running": self.queue.running_count(),
            "backend": "serial",
        }

    def publish_usage_metrics(self) -> None:
        """Refresh per-tenant usage gauges (called per /metrics scrape)."""
        for tenant, usage in self.quotas.usage().items():
            self.metrics.gauge_set(
                "repro_tenant_admitted_total",
                "Submits admitted per tenant since start",
                usage["admitted"],
                tenant=tenant,
            )
        self.scheduler._publish_queue_gauges()
