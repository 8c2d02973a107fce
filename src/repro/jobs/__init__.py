"""``repro.jobs`` — the multi-tenant campaign job service.

Promotes the single-campaign coordinator into a long-running shared
service, one object — :class:`JobsManager` — owning a crash-safe
persistent job queue with priorities and FIFO-within-priority
ordering, per-tenant quotas and token-bucket rate limits, and a
priority-preempting scheduler thread that runs every job's cells
in-process, time-sliced at window boundaries.  A record write the disk
refuses has one answer (:meth:`JobQueue.transition`): the job stays as
on disk and the caller gets a structured 503.

The HTTP surface lives in :mod:`repro.api.service` (``/v1/jobs``,
``/v1/healthz``, ``/metrics``); this package is transport-free and
fully usable in-process:

    from repro.jobs import JobsManager

    manager = JobsManager(".repro_jobs")
    manager.start()                      # recovers persisted jobs
    doc = manager.submit_body({
        "request": {"type": "simulate", "mix": "W1", "policy": "acg"},
        "tenant": "alice",
        "priority": 5,
    })
"""

from repro import lazy_exports

_EXPORTS = {
    "JobsClient": "client",
    "JobQueue": "queue",
    "JobsManager": "scheduler",
    "job_progress_label": "scheduler",
    "CANCELLED": "store",
    "COMPLETED": "store",
    "FAILED": "store",
    "QUEUED": "store",
    "RUNNING": "store",
    "TERMINAL_STATES": "store",
    "JobRecord": "store",
    "JobStore": "store",
    "new_job_id": "store",
    "QuotaExceeded": "tenancy",
    "QuotaManager": "tenancy",
    "TenantPolicy": "tenancy",
    "TokenBucket": "tenancy",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
