"""``repro.jobs`` — the multi-tenant campaign job service.

Promotes the single-campaign coordinator into a long-running shared
service: a crash-safe persistent job queue with priorities and
FIFO-within-priority ordering, per-tenant quotas and token-bucket rate
limits, a priority-preempting scheduler that runs every job's cells
in-process, time-sliced at window boundaries, and a
bounded-cardinality metrics registry backing ``GET /metrics``.

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

from repro.jobs.client import JobsClient
from repro.jobs.queue import JobQueue
from repro.obs.metrics import MetricsRegistry
from repro.jobs.scheduler import (
    JobScheduler,
    JobsManager,
    expand_job_request,
    job_progress_label,
)
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
from repro.jobs.tenancy import (
    QuotaExceeded,
    QuotaManager,
    TenantPolicy,
    TokenBucket,
)

__all__ = [
    "CANCELLED",
    "COMPLETED",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "JobQueue",
    "JobRecord",
    "JobScheduler",
    "JobStore",
    "JobsClient",
    "JobsManager",
    "MetricsRegistry",
    "QuotaExceeded",
    "QuotaManager",
    "TenantPolicy",
    "TokenBucket",
    "expand_job_request",
    "job_progress_label",
    "new_job_id",
]
