"""A small client for the ``/v1/jobs`` lifecycle.

Used by the ``repro jobs`` CLI subcommands.  Every call goes through
:func:`repro.api.http.call_json`, so any failure is one
:class:`~repro.api.http.ServiceError`: its ``status`` and ``body`` let
a caller tell a 429 quota refusal (``retry_after_s``) from a 400, a
404 unknown job or a 409 result read before the job finished; a
``status`` of None means no JSON answer came back at all.
"""

from __future__ import annotations

import time
from urllib.parse import quote, urlencode

from repro.api.http import call_json


class JobsClient:
    """Talk to one jobs-enabled ``python -m repro serve`` instance."""

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _job_url(self, job_id: str, action: str = "") -> str:
        """``/v1/jobs/<id>[/<action>]``, with the id URL-quoted."""
        return f"{self.base_url}/v1/jobs/{quote(job_id, safe='')}{action}"

    # -- lifecycle calls -----------------------------------------------------

    def submit(
        self,
        request: dict,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> dict:
        """Submit one typed request dict; returns the job document."""
        return call_json(
            "POST",
            f"{self.base_url}/v1/jobs",
            {"request": request, "tenant": tenant, "priority": priority},
            timeout_s=self.timeout_s,
        )

    def status(self, job_id: str) -> dict:
        """The job's status document (with live per-cell progress)."""
        return call_json(
            "GET", self._job_url(job_id), timeout_s=self.timeout_s
        )

    def result(self, job_id: str) -> dict:
        """The completed job's result document (409 while running)."""
        return call_json(
            "GET", self._job_url(job_id, "/result"), timeout_s=self.timeout_s
        )

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; returns the job document."""
        return call_json(
            "POST", self._job_url(job_id, "/cancel"), timeout_s=self.timeout_s
        )

    def list(self, tenant: str | None = None) -> dict:
        """Every known job, optionally filtered by tenant."""
        query = f"?{urlencode({'tenant': tenant})}" if tenant else ""
        return call_json(
            "GET", f"{self.base_url}/v1/jobs{query}", timeout_s=self.timeout_s
        )

    def wait(
        self,
        job_id: str,
        *,
        timeout_s: float = 300.0,
        poll_s: float = 0.25,
    ) -> dict:
        """Poll until the job is terminal; returns the result document.

        Raises :class:`~repro.api.http.ServiceError` when the job ends
        cancelled or failed (the 409 result answer), or
        :class:`TimeoutError` when ``timeout_s`` elapses first.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            document = self.status(job_id)
            status = document["job"]["status"]
            if status in ("completed", "failed", "cancelled"):
                return self.result(job_id)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status!r} after {timeout_s}s"
                )
            time.sleep(poll_s)

    def metrics_json(self) -> dict:
        """The ``/metrics?format=json`` document."""
        return call_json(
            "GET", f"{self.base_url}/metrics?format=json",
            timeout_s=self.timeout_s,
        )

