"""``python -m repro serve`` — a stdlib HTTP JSON service over the API.

The service is a thin transport: every route builds the same typed
request object the CLI and :class:`~repro.api.client.ReproClient` use,
runs it through one shared client (and therefore one shared
ResultStore), and responds with the canonical envelope JSON — so a
``curl`` and a ``--json`` CLI call for the same warm request return
byte-identical bodies.

``/v1/simulate`` and ``/v1/server`` keep the body of each plain cache
hit they answer (no ``single_flight`` entry; never a miss), keyed by
the decoded request, so GET and POST share it.  The table holds at
most ``MEMO_LIMIT`` replies, the oldest evicted first.  A kept body is
served again only while the client uses the default cache and its
memo holds the cell; an evicted cell, a ``REPRO_CACHE_DIR`` switch or
a recompute takes the full path and answers what it answers.  A
served body counts one ``repro_store_requests_total{cache="hit"}``,
takes its run slot and runs under the ``http`` span like any reply.

The v1 routes are the rows of one table, ``_ROUTES``, the only place a
path or method is spelled out; each handler's docstring says what its
route answers.  A path no row matches answers 404, and a matched path
asked with a method its row does not list (``PUT``, ``DELETE`` and
``PATCH`` included) answers 405 with an ``Allow`` header.  The matched
pattern is also the histogram's ``route`` label (``other`` when none
matched).  Each row also lists the query parameters its method
accepts; any other parameter is a 400 before the handler runs.  The
``/v1/jobs`` routes answer 503 without ``serve --jobs``, and a submit
whose job record cannot be written (a full disk) answers 503 too.

GET passes request fields as query parameters, typed by the one request
schema in :mod:`repro.api.requests` exactly as CLI flags and ``jobs
submit --set`` are (lists comma-separated, e.g.
``?grid=ch4&mixes=W1,W2``); POST passes a JSON object (the route
implies the ``type`` tag).  Every field is checked before any work
starts.  Every error answer is one ``{"schema_version": ..., "error":
...}`` document built by ``_Handler._error``, and closes the connection
(the request body may be unread): library errors are 400s naming the
bad field or value, an unknown job or trace is a 404, a result read
before its job completed a 409, and refusals (429, 503) carry
machine-readable fields (``retry_after_s``, ``reason``).  A client
that resets its connection mid-request is logged at info level
(``http.client_disconnected``) and sent nothing.  Any other exception
a handler raises is logged (``http.unhandled``) and answered as a
500, so a fault never closes the connection without a reply; one
that escapes a connection is logged too (``http.connection_error``),
never printed as a bare traceback.

Concurrency is bounded where it costs: every open connection has its
own handler thread, so cheap routes and status polls always answer,
but the run routes share ``max_concurrent_runs`` slots.  A burst of
cold campaign submits beyond the bound gets a structured 429 with a
``Retry-After`` header instead of forking unbounded work — submit
through ``/v1/jobs`` to queue instead of racing for slots.  Identical
*simultaneous* cold requests within the bound still run one compute:
the default result cache single-flights them
(:class:`~repro.campaign.stores.ResultCache`).  A handler thread
outlives its connection: it waits, idle, for the next one, so a
closed-loop client's warm requests do not each start a thread.

``serve`` handles SIGTERM by draining: the jobs scheduler checkpoints
its in-flight window slice and requeues the job (so a restart resumes
it warm), then the HTTP loop exits cleanly.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import queue
import re
import signal
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qsl, urlparse

# /v1/server and Chapter 5 jobs run the testbed simulator, which
# repro.analysis.specs loads only on first use; the service loads it at
# start-up so its first such request does not pay for the import.
import repro.testbed.performance  # noqa: F401
import repro.testbed.runner  # noqa: F401
from repro import __version__
from repro.api.client import ReproClient
from repro.api.envelope import (
    SCHEMA_VERSION,
    ResultEnvelope,
    dumps_canonical,
    results_document,
    scenarios_document,
)
from repro.api.requests import (
    REQUEST_SCHEMA,
    REQUEST_TYPES,
    request_from_dict,
    request_from_text,
)
from repro.campaign.engine import memo_hit
from repro.campaign.stores import cache as cache_module
from repro.engine.codec import Kind, Optional, Text
from repro.engine.progress import PROGRESS
from repro.errors import (
    ConfigurationError,
    ConflictError,
    NotFoundError,
    Unavailable,
    ReproError,
)
from repro.jobs.tenancy import QuotaExceeded
from repro.obs.log import LOG
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.slo import slo_document
from repro.obs.trace import TRACE_HEADER, TRACER, chrome_trace


def _params_from_query(query: str) -> dict[str, str]:
    """Query parameters as text (a repeated key keeps its last value)."""
    return dict(parse_qsl(query, keep_blank_values=True))


def _param(params: dict, name: str, kind: Kind, default: Any = None) -> Any:
    """Query parameter ``name``, refused (a 400 naming it) outside ``kind``."""
    value = params.get(name, default)
    kind.decode(value, name, None, ConfigurationError)
    return value


def _match(path: str) -> tuple[str | None, str | None]:
    """The route pattern ``path`` matches, and its ``<id>`` segment."""
    if path in _ROUTES and "<id>" not in path:
        return path, None
    for regex, pattern in _ID_ROUTES:
        found = regex.fullmatch(path)
        if found:
            return pattern, found.group(1)
    return None, None


def _body(document: dict | str) -> bytes:
    """A reply's body: the canonical JSON of ``document`` (text as
    given), ending in one newline."""
    text = document if isinstance(document, str) else dumps_canonical(document)
    return (text + "\n").encode() if not text.endswith("\n") else text.encode()


def _log_disconnect(client_address, error: ConnectionError) -> None:
    LOG.info(
        "http.client_disconnected", peer=client_address[0], error=repr(error)
    )


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared :class:`ReproClient`."""

    server: "ReproService"
    protocol_version = "HTTP/1.1"
    # ``_respond`` sends the headers and the body in two writes; with
    # Nagle's algorithm on, a keep-alive client's second request waits
    # for its own delayed ACK of the first (about 40 ms each).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _respond(
        self,
        status: int,
        document: dict | str | bytes,
        *,
        content_type: str = "application/json",
        headers: dict | None = None,
    ) -> None:
        body = document if isinstance(document, bytes) else _body(document)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        message: str,
        *,
        extra: dict | None = None,
        retry_after_s: float | None = None,
        headers: dict | None = None,
    ) -> None:
        """Answer with an error document (the only place one is built)."""
        document = {"schema_version": SCHEMA_VERSION, "error": message}
        document.update(extra or {})
        headers = {"Connection": "close", **(headers or {})}
        if retry_after_s is not None:
            document["retry_after_s"] = retry_after_s
            headers["Retry-After"] = str(max(1, round(retry_after_s)))
        self._respond(status, document, headers=headers)

    def _read_json_body(self) -> dict:
        text = self.headers.get("Content-Length") or "0"
        try:
            length = int(text)
        except ValueError:
            length = -1
        if length < 0:
            raise ConfigurationError(
                f"Content-Length must be a non-negative integer, got {text!r}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise ConfigurationError(f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise ConfigurationError("request body must be a JSON object")
        return body

    # -- routing -----------------------------------------------------------

    def _dispatch(self) -> None:
        """Answer a request of any method through the route table."""
        method = self.command
        url = urlparse(self.path)
        pattern, ident = _match(url.path)
        with contextlib.ExitStack() as stack:
            if TRACER.enabled:
                # Adopt the caller's trace context (if any) for the
                # whole request, and wrap the route in a server-side
                # span, so engine/job/cell spans opened on this handler
                # thread nest under the remote caller's span.
                remote = TRACER.parse_header(self.headers.get(TRACE_HEADER))
                if remote is not None:
                    stack.enter_context(TRACER.activate(*remote))
                stack.enter_context(TRACER.span(
                    "http", route=pattern or "other", method=method
                ))
            started = time.perf_counter()
            try:
                if pattern is None:
                    raise NotFoundError(f"unknown route {url.path!r}")
                self._route(method, url, pattern, ident)
            except QuotaExceeded as error:
                self._error(
                    429,
                    str(error),
                    extra={"reason": error.reason, "tenant": error.tenant},
                    retry_after_s=error.retry_after_s,
                )
            except Unavailable as error:
                self._error(
                    503,
                    str(error),
                    extra={"reason": error.reason},
                    retry_after_s=error.retry_after_s,
                )
            except NotFoundError as error:
                self._error(404, str(error))
            except ConflictError as error:
                self._error(409, str(error), extra=error.detail)
            except ReproError as error:
                self._error(400, str(error))
            except ConnectionError as error:
                # The client went away mid-request: no fault of ours,
                # and nobody to answer.
                self.close_connection = True
                _log_disconnect(self.client_address, error)
            except Exception as error:  # noqa: BLE001 - a fault still answers
                LOG.error(
                    "http.unhandled",
                    f"{method} {url.path} raised {type(error).__name__}: {error}",
                    route=pattern or "other",
                    method=method,
                    error=repr(error),
                    traceback=traceback.format_exc(),
                )
                self._error(
                    500, f"internal error ({type(error).__name__}); see the service log"
                )
            finally:
                self.server.metrics.observe(
                    "repro_http_request_seconds",
                    "HTTP request latency per route",
                    time.perf_counter() - started,
                    route=pattern or "other",
                    method=method,
                )

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _dispatch

    def _route(self, method: str, url, pattern: str, ident: str | None) -> None:
        """Run the table's handler for ``(method, pattern)``."""
        methods = _ROUTES[pattern]
        if method not in methods:
            self._error(
                405,
                f"use {' or '.join(methods)} for {url.path}",
                headers={"Allow": ", ".join(methods)},
            )
        elif pattern.startswith("/v1/jobs") and self.server.jobs is None:
            self._error(
                503,
                "the jobs service is not enabled on this instance "
                "(start it with 'repro serve --jobs')",
                extra={"reason": "jobs_disabled"},
            )
        else:
            handler, accepted = methods[method]
            params = _params_from_query(url.query)
            unknown = params.keys() - accepted
            if unknown:
                raise ConfigurationError(
                    f"unknown query parameters {sorted(unknown)} for "
                    f"{method} {pattern} (accepted: {sorted(accepted)})"
                )
            handler(self, params, ident)

    def _run(self, compute, request) -> None:
        """One run route: ``compute(client, request)``'s document,
        answered from a compute slot (or a 429)."""
        if getattr(request, "jobs", 1) != 1:
            # Forking a worker pool inside a handler thread of a
            # multithreaded server risks child deadlocks; HTTP callers
            # get parallelism by issuing concurrent requests against
            # the shared cache instead.
            raise ConfigurationError(
                "jobs is not supported over HTTP; issue concurrent "
                "requests instead (the cache is shared)"
            )
        if not self.server.acquire_run_slot():
            self._error(
                429,
                f"all {self.server.max_concurrent_runs} compute slots are "
                "busy; retry, or queue the work through POST /v1/jobs",
                extra={"reason": "capacity"},
                retry_after_s=1.0,
            )
            return
        # Release the slot before responding: a client that reads the
        # body and immediately sends its next request must find the
        # slot free, never a spurious 429.
        try:
            body = self.server.run_reply(compute, request)
        finally:
            self.server.release_run_slot()
        self._respond(200, body)

    # -- handlers ----------------------------------------------------------
    # Each takes the query parameters and the path's ``<id>`` segment
    # (None on a fixed path).

    def _list_scenarios(self, params: dict, ident: str | None) -> None:
        """The scenario library (``?kind=ch4|ch5`` and ``?tag=`` filter)."""
        kind = _param(params, "kind", Optional(Text(("ch4", "ch5"))))
        descriptors = self.server.client.list_scenarios(
            kind=kind, tag=params.get("tag")
        )
        self._respond(200, scenarios_document(descriptors))

    def _progress(self, params: dict, ident: str | None) -> None:
        """Live progress of this process's engine runs (``?key=`` filters)."""
        self._respond(200, {
            "schema_version": SCHEMA_VERSION,
            "runs": PROGRESS.snapshot(params.get("key")),
        })

    def _healthz(self, params: dict, ident: str | None) -> None:
        """Liveness + queue summary (mounted with or without --jobs);
        ``degraded`` once a job record write has failed."""
        jobs = None if self.server.jobs is None else self.server.jobs.health()
        self._respond(200, {
            "schema_version": SCHEMA_VERSION,
            "status": "degraded" if jobs and jobs["persist_failures"] else "ok",
            "pid": os.getpid(),
            "version": __version__,
            "uptime_s": round(self.server.uptime_s(), 3),
            "jobs": jobs,
        })

    def _metrics(self, params: dict, ident: str | None) -> None:
        """The metrics registry, as Prometheus text or JSON."""
        fmt = _param(params, "format", Text(("text", "json")), "text")
        jobs = self.server.jobs
        if jobs is not None:
            jobs.publish_usage_metrics()
        self.server.metrics.gauge_set(
            "repro_uptime_seconds", "Seconds since service start",
            round(self.server.uptime_s(), 3),
        )
        if fmt == "json":
            self._respond(200, {
                "schema_version": SCHEMA_VERSION,
                "metrics": self.server.metrics.render_json(),
            })
        else:
            self._respond(
                200,
                self.server.metrics.render_text(),
                content_type="text/plain; version=0.0.4",
            )

    def _slo(self, params: dict, ident: str | None) -> None:
        """Current SLO verdicts from the service's metrics registry."""
        jobs = self.server.jobs
        if jobs is not None:
            jobs.publish_usage_metrics()
        document = slo_document(self.server.metrics)
        document["schema_version"] = SCHEMA_VERSION
        self._respond(200, document)

    def _trace(self, params: dict, trace_id: str | None) -> None:
        """One trace's spans from the in-process ring.

        ``?format=chrome`` (the default) answers with a Chrome
        trace-event document; ``?format=spans`` with the raw span
        dicts.  Unknown trace ids answer 404 — the ring is bounded, so
        old traces age out.
        """
        fmt = _param(params, "format", Text(("chrome", "spans")), "chrome")
        spans = TRACER.spans(trace_id)
        if not spans:
            raise NotFoundError(f"no spans retained for trace {trace_id!r}")
        if fmt == "spans":
            self._respond(200, {
                "schema_version": SCHEMA_VERSION,
                "trace_id": trace_id,
                "spans": [span.to_dict() for span in spans],
            })
            return
        self._respond(200, chrome_trace(spans))

    # -- jobs --------------------------------------------------------------

    def _jobs_submit(self, params: dict, ident: str | None) -> None:
        """Queue any typed request (429 when the tenant's quota refuses)."""
        body = self._read_json_body()
        self._respond(202, self.server.jobs.submit_body(body))

    def _jobs_list(self, params: dict, ident: str | None) -> None:
        """Every job, newest first (``?tenant=`` filters)."""
        tenant = params.get("tenant")
        self._respond(200, self.server.jobs.list_document(tenant))

    def _jobs_status(self, params: dict, job_id: str | None) -> None:
        """One job's status, with live per-cell progress."""
        self._respond(200, self.server.jobs.status_document(job_id))

    def _jobs_result(self, params: dict, job_id: str | None) -> None:
        """The completed job's result (byte-identical to a warm run)."""
        self._respond(200, self.server.jobs.result_document(job_id))

    def _jobs_cancel(self, params: dict, job_id: str | None) -> None:
        """Cancel: at once when queued, at a slice boundary when running."""
        self._respond(200, self.server.jobs.cancel(job_id))


def _run_route(type_tag: str, compute) -> dict:
    """GET and POST rows of a run route; ``compute`` answers.

    GET takes the request's fields as query parameters; POST takes
    them as its JSON body, and no query parameter.
    """

    def from_query(handler: _Handler, params: dict, _) -> None:
        handler._run(compute, request_from_text(type_tag, params))

    def from_body(handler: _Handler, params: dict, _) -> None:
        body = handler._read_json_body()
        handler._run(compute, request_from_dict({**body, "type": type_tag}))

    fields = tuple(REQUEST_SCHEMA[REQUEST_TYPES[type_tag]])
    return {"GET": (from_query, fields), "POST": (from_body, ())}


#: The route table: path pattern -> {method: (handler, the query
#: parameters it accepts)}.  ``<id>`` matches one non-empty path
#: segment.
_ROUTES: dict[str, dict] = {
    "/v1/scenarios": {"GET": (_Handler._list_scenarios, ("kind", "tag"))},
    # One Chapter 4 cell, one Chapter 5 cell, every ch4 scheme on one
    # mix, a named grid, and registered scenarios by name.
    "/v1/simulate": _run_route("simulate", lambda c, r: c.simulate(r)),
    "/v1/server": _run_route("server", lambda c, r: c.server(r)),
    "/v1/compare": _run_route(
        "compare", lambda c, r: results_document(c.compare(r))
    ),
    "/v1/campaign": _run_route(
        "campaign", lambda c, r: results_document(c.run_campaign(r))
    ),
    "/v1/scenarios/run": _run_route(
        "scenarios", lambda c, r: results_document(c.run_campaign(r))
    ),
    "/v1/progress": {"GET": (_Handler._progress, ("key",))},
    "/v1/healthz": {"GET": (_Handler._healthz, ())},
    "/metrics": {"GET": (_Handler._metrics, ("format",))},
    "/v1/slo": {"GET": (_Handler._slo, ())},
    "/v1/trace/<id>": {"GET": (_Handler._trace, ("format",))},
    "/v1/jobs": {
        "GET": (_Handler._jobs_list, ("tenant",)),
        "POST": (_Handler._jobs_submit, ()),
    },
    "/v1/jobs/<id>": {"GET": (_Handler._jobs_status, ())},
    "/v1/jobs/<id>/result": {"GET": (_Handler._jobs_result, ())},
    "/v1/jobs/<id>/cancel": {"POST": (_Handler._jobs_cancel, ())},
}
_ID_ROUTES = [
    (re.compile(re.escape(pattern).replace("<id>", "([^/]+)")), pattern)
    for pattern in _ROUTES
    if "<id>" in pattern
]


#: Seconds an idle handler thread waits for its next connection before
#: it exits.
_HANDLER_IDLE_S = 30.0


class ReproService(HTTPServer):
    """HTTP server exposing the client API, one handler thread per
    open connection.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`port` (or pass ``port_file`` to :func:`serve`).

    ``jobs`` mounts a :class:`~repro.jobs.JobsManager` under
    ``/v1/jobs`` (the caller starts/stops it — normally :func:`serve`).
    ``max_concurrent_runs`` bounds the simultaneously executing compute
    routes; excess requests get a structured 429.

    A new connection goes to a handler thread that is waiting idle, or
    to a new daemon thread when none is, so it never waits behind a
    busy one.  Each connection runs in a fresh :mod:`contextvars`
    context, as on a new thread, so no trace or progress label carries
    over.  A thread goes idle just before it closes its connection, and
    exits after ``_HANDLER_IDLE_S`` without one or at
    :meth:`server_close`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        verbose: bool = False,
        jobs=None,
        max_concurrent_runs: int | None = None,
    ) -> None:
        self.client = ReproClient()
        self.verbose = verbose
        #: The mounted JobsManager (None = jobs routes answer 503).
        self.jobs = jobs
        #: One registry serves /metrics: the process-wide METRICS, which
        #: the engine, stores and jobs manager all write, so their
        #: series land in one scrape.
        self.metrics: MetricsRegistry = METRICS
        if max_concurrent_runs is None:
            max_concurrent_runs = max(2, os.cpu_count() or 2)
        if max_concurrent_runs < 1:
            raise ConfigurationError("max_concurrent_runs must be >= 1")
        self.max_concurrent_runs = max_concurrent_runs
        self._run_slots = threading.BoundedSemaphore(max_concurrent_runs)
        self._started_monotonic = time.monotonic()
        #: The inboxes of the handler threads waiting for a connection,
        #: the most recently idle last.
        self._idle: list[queue.SimpleQueue] = []
        self._idle_lock = threading.Lock()
        self._closed = False
        #: request -> (cache key, body) of single-cell plain-hit
        #: replies, oldest first
        self._replies: dict[Any, tuple[str, bytes]] = {}
        self._replies_lock = threading.Lock()
        super().__init__((host, port), _Handler)

    # -- run replies -------------------------------------------------------

    def run_reply(self, compute, request) -> bytes:
        """The body answering ``compute(client, request)``.

        A single-cell envelope that is a plain hit (no single-flight
        entry) is kept, and its body served again while the default
        cache's memo holds its cell; otherwise the request computes.
        """
        shared = self.client.store is None
        kept = self._replies.get(request) if shared else None
        if kept is not None and memo_hit(kept[0]):
            return kept[1]
        document = compute(self.client, request)
        if not isinstance(document, ResultEnvelope):
            return _body(document)
        body = _body(document.to_json())
        provenance = document.provenance
        if (
            shared
            and provenance.cache == "hit"
            and provenance.single_flight is None
        ):
            with self._replies_lock:
                self._replies[request] = (provenance.cache_key, body)
                while len(self._replies) > cache_module.MEMO_LIMIT:
                    del self._replies[next(iter(self._replies))]
        return body

    # -- handler threads ---------------------------------------------------

    def process_request(self, request, client_address) -> None:
        """Hand the connection to an idle handler thread, or start one."""
        with self._idle_lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is not None:
            inbox.put((request, client_address))
            return
        threading.Thread(
            target=self._handler_thread,
            args=(request, client_address),
            name="repro-http",
            daemon=True,
        ).start()

    def _handler_thread(self, request, client_address) -> None:
        """Serve connections until none comes for ``_HANDLER_IDLE_S``."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while request is not None:
            contextvars.Context().run(
                self._serve_connection, request, client_address, inbox
            )
            request, client_address = self._next_connection(inbox)

    def _serve_connection(self, request, client_address, inbox) -> None:
        """Serve one connection as ``ThreadingMixIn`` does, then go idle."""
        try:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            # Idle before the close: a client that opens its next
            # connection once this one closes finds this thread.
            with self._idle_lock:
                if self._closed:
                    inbox.put((None, None))
                else:
                    self._idle.append(inbox)
        finally:
            self.shutdown_request(request)

    def _next_connection(self, inbox: queue.SimpleQueue) -> tuple:
        """The next connection handed to this thread; ``(None, None)``
        once it has waited ``_HANDLER_IDLE_S`` or the server closed."""
        try:
            return inbox.get(timeout=_HANDLER_IDLE_S)
        except queue.Empty:
            pass
        with self._idle_lock:
            if inbox in self._idle:
                self._idle.remove(inbox)
                return None, None
        # process_request took this inbox as the wait ran out: its
        # connection is on the way.
        return inbox.get()

    def handle_error(self, request, client_address) -> None:
        """Log an exception that escaped a connection as one structured
        event, in place of ``socketserver``'s traceback on stderr."""
        error = sys.exc_info()[1]
        if isinstance(error, ConnectionError):
            _log_disconnect(client_address, error)
            return
        LOG.error(
            "http.connection_error",
            f"connection from {client_address[0]} raised "
            f"{type(error).__name__}: {error}",
            error=repr(error),
            traceback=traceback.format_exc(),
        )

    def server_close(self) -> None:
        """Close the listener and release every idle handler thread."""
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put((None, None))

    def uptime_s(self) -> float:
        """Seconds since this service object was created."""
        return time.monotonic() - self._started_monotonic

    def acquire_run_slot(self) -> bool:
        """Take a compute slot without blocking; False when saturated."""
        return self._run_slots.acquire(blocking=False)

    def release_run_slot(self) -> None:
        """Return a compute slot."""
        self._run_slots.release()

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` requests)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.server_address[0]}:{self.port}"


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    port_file: str | None = None,
    verbose: bool = False,
    jobs=None,
    max_concurrent_runs: int | None = None,
) -> int:
    """Run the service until interrupted (the ``serve`` subcommand).

    ``port_file`` writes the bound port to a file once listening —
    the hook CI and tests use with ``--port 0``.

    With ``jobs`` (a :class:`~repro.jobs.JobsManager`), persisted jobs
    are recovered and the scheduler starts before the listener; SIGTERM
    (and Ctrl-C) drain — the in-flight window slice checkpoints and its
    job requeues — before the process exits, so ``kill <pid>`` never
    loses acknowledged work.
    """
    service = ReproService(
        host, port, verbose=verbose, jobs=jobs,
        max_concurrent_runs=max_concurrent_runs,
    )
    draining = threading.Event()

    def _drain_and_shutdown() -> None:
        if jobs is not None:
            jobs.stop(drain=True)
        service.shutdown()

    def _on_sigterm(signum, frame) -> None:
        if draining.is_set():
            return
        draining.set()
        LOG.info("service.draining", "sigterm: draining in-flight slices")
        # shutdown() must not run on the thread inside serve_forever()
        # (it would deadlock waiting for itself), and a signal handler
        # runs exactly there — hand the drain to a helper thread.
        threading.Thread(
            target=_drain_and_shutdown, name="repro-drain", daemon=True
        ).start()

    try:
        if jobs is not None:
            recovered = jobs.start()
            if recovered["requeued"] or recovered["unreadable"]:
                LOG.info(
                    "service.recovered",
                    f"recovered {recovered['requeued']} queued/running "
                    f"job(s) from disk, skipped {recovered['unreadable']} "
                    f"unreadable record(s)",
                    requeued=recovered["requeued"],
                    unreadable=recovered["unreadable"],
                )
        try:
            signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            pass  # not the main thread (tests drive serve() directly)
        if port_file:
            Path(port_file).write_text(f"{service.port}\n")
        extras = " with jobs" if jobs is not None else ""
        LOG.info(
            "service.listening",
            f"serving repro API{extras} (schema {SCHEMA_VERSION}) "
            f"on {service.url}",
            url=service.url,
            jobs=jobs is not None,
        )
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if jobs is not None and not draining.is_set():
            jobs.stop(drain=True)
        service.server_close()
    return 0
