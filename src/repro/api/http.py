"""One JSON-over-HTTP client for every outbound call.

:class:`~repro.jobs.JobsClient`, behind every ``repro jobs`` command,
calls a service through :func:`call_json`, so a failed call reads the
same everywhere.  This module imports nothing from the api or jobs
layers, so each of them can use it without an import cycle.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

from repro.errors import ReproError
from repro.obs.trace import TRACE_HEADER, TRACER


class ServiceError(ReproError):
    """A call that did not come back as a 2xx JSON object.

    ``status`` is the HTTP status of a JSON error answer, or None when
    the call failed in transport (refused, reset, timed out, a bad URL)
    or the reply was not a JSON object.  ``error`` is the service's
    ``error`` text (else the message), ``body`` the error document, and
    ``retry_after_s`` the backoff hint a 429 carries.
    """

    def __init__(
        self, message: str, status: int | None = None, body: dict | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.body = body or {}
        self.error = str(self.body.get("error", message))
        hint = self.body.get("retry_after_s")
        self.retry_after_s = float(hint) if type(hint) in (int, float) else None


def _json_object(raw: bytes) -> dict | None:
    try:
        document = json.loads(raw)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


def call_json(
    method: str,
    url: str,
    body: dict | None = None,
    *,
    timeout_s: float,
) -> dict:
    """Send one request (``body`` as JSON); the reply's JSON object.

    The calling thread's trace context rides along as the
    ``X-Repro-Trace`` header.  Raises :class:`ServiceError` for a
    non-2xx answer, a transport failure, or a reply that is not a JSON
    object.
    """
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data is not None else {}
    trace_header = TRACER.propagation_header()
    if trace_header:
        headers[TRACE_HEADER] = trace_header
    where = f"{method} {url}"
    try:
        request = urllib.request.Request(url, data, headers, method=method)
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            raw = response.read()
    except urllib.error.HTTPError as error:
        try:
            document = _json_object(error.read())
        except (OSError, http.client.HTTPException):
            document = None
        text = (
            "no JSON error document" if document is None
            else document.get("error", "unknown error")
        )
        raise ServiceError(
            f"{where} answered {error.code}: {text}",
            None if document is None else error.code,
            document,
        ) from None
    except (OSError, http.client.HTTPException, ValueError) as error:
        # OSError covers refused and reset connections, timeouts and
        # urllib's URLError; ValueError an unusable URL.
        raise ServiceError(f"{where} failed: {error}") from None
    document = _json_object(raw)
    if document is None:
        raise ServiceError(f"{where} answered with no JSON object")
    return document
