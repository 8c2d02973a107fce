"""``python -m repro serve`` — a stdlib HTTP JSON service over the API.

The service is a thin transport: every route builds the same typed
request object the CLI and :class:`~repro.api.client.ReproClient` use,
runs it through one shared client (and therefore one shared
ResultStore), and responds with the canonical envelope JSON — so a
``curl`` and a ``--json`` CLI call for the same warm request return
byte-identical bodies.

Routes (v1):

- ``GET  /v1/scenarios``            — scenario-library listing
  (``?kind=ch4|ch5`` and ``?tag=...`` filter).
- ``GET|POST /v1/simulate``         — one Chapter 4 cell.
- ``GET|POST /v1/server``           — one Chapter 5 cell.
- ``GET|POST /v1/compare``          — every ch4 scheme on one mix.
- ``GET|POST /v1/campaign``         — a named grid.
- ``GET|POST /v1/scenarios/run``    — registered scenarios by name.
- ``GET  /v1/healthz``              — liveness: version, uptime, queue
  depth, and backend kind (always mounted, jobs enabled or not).
- ``GET  /metrics``                 — the service's metrics registry as
  Prometheus-style text (``?format=json`` for a JSON document):
  request-latency histograms per route, queue depth, per-tenant job
  latency, cache hit/miss counters, fleet health.
- ``POST /v1/jobs``                 — submit a job (any typed request)
  with ``tenant``/``priority``; 429 with ``retry_after_s`` when the
  tenant's quota or rate limit refuses it.  Requires ``serve --jobs``.
- ``GET  /v1/jobs``                 — list jobs (``?tenant=`` filters).
- ``GET  /v1/jobs/<id>``            — status with live per-cell
  progress fed by the PROGRESS broker.
- ``POST /v1/jobs/<id>/cancel``     — cancel (immediate while queued,
  at the next window-slice boundary while running).
- ``GET  /v1/jobs/<id>/result``     — the completed job's result
  document (409 while not completed); warm results are byte-identical
  to the equivalent direct CLI/HTTP call.
- ``GET  /v1/worker/health``        — fleet heartbeat probe (status,
  pid, wire version, runnable spec kinds).
- ``POST /v1/worker/run``           — execute wire-format cells for a
  :class:`~repro.cluster.HttpWorkerBackend` coordinator, returning
  encoded payloads with cache provenance.  Cells run against this
  worker's own store stack, so repeat dispatches are cache hits here
  even before the coordinator merges payloads into its shared store.
  With ``window_slice`` in the body each cell runs at most that many
  DTM windows, resuming from the coordinator-supplied ``resume``
  checkpoints; unfinished cells come back as ``partial`` entries
  carrying a fresh :class:`~repro.engine.EngineState`.
- ``GET  /v1/progress``             — live progress snapshots of the
  engine runs executing in this process (``?key=`` filters to one
  cell), fed by the engines' progress observers.  Covers runs started
  by any route of this service *and* sliced worker cells, so a
  coordinator can watch its fleet warm up cell by cell.

GET passes request fields as query parameters, typed by the one request
schema in :mod:`repro.api.requests` exactly as CLI flags and ``jobs
submit --set`` are (lists comma-separated, e.g.
``?grid=ch4&mixes=W1,W2``); POST passes a JSON object (the route
implies the ``type`` tag).  Every field is checked before any work
starts; library errors return ``400 {"schema_version": ..., "error":
...}`` naming the bad field or value; unknown routes 404;
refusals carry machine-readable fields (``retry_after_s``, ``reason``).

Concurrency is bounded: the server remains threaded (cheap routes and
status polls always answer), but the compute routes (the run routes and
``/v1/worker/run``) share ``max_concurrent_runs`` slots.  A burst of
cold campaign submits beyond the bound gets a structured 429 with a
``Retry-After`` header instead of forking unbounded work — submit
through ``/v1/jobs`` to queue instead of racing for slots.  Identical
*simultaneous* cold requests within the bound are still single-flighted
by the store stack (:class:`~repro.campaign.stores.SingleFlightStore`).

``serve`` handles SIGTERM by draining: the jobs scheduler checkpoints
its in-flight window slice and requeues the job (so a restart resumes
it warm), then the HTTP loop exits cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlparse

from repro import __version__
from repro.api.client import ReproClient
from repro.api.envelope import (
    SCHEMA_VERSION,
    dumps_canonical,
    results_document,
    scenarios_document,
)
from repro.api.requests import request_from_dict, request_from_text
from repro.campaign import spec_kinds_with_types
from repro.cluster.wire import WIRE_VERSION, cell_from_wire
from repro.engine.progress import PROGRESS
from repro.errors import ConfigurationError, ReproError
from repro.jobs.tenancy import QuotaExceeded
from repro.obs.log import LOG
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.slo import slo_document
from repro.obs.trace import TRACE_HEADER, TRACER, chrome_trace

#: Route path -> request ``type`` tag.
_RUN_ROUTES = {
    "/v1/simulate": "simulate",
    "/v1/server": "server",
    "/v1/compare": "compare",
    "/v1/campaign": "campaign",
    "/v1/scenarios/run": "scenarios",
}


def _params_from_query(query: str) -> dict[str, str]:
    """Query parameters as text (a repeated key keeps its last value)."""
    return dict(parse_qsl(query, keep_blank_values=True))


def _route_label(path: str) -> str:
    """A bounded-cardinality route label for the request histogram."""
    if path in _RUN_ROUTES:
        return path
    if path in (
        "/v1/scenarios", "/v1/progress", "/v1/healthz", "/metrics",
        "/v1/worker/health", "/v1/worker/run", "/v1/jobs", "/v1/slo",
    ):
        return path
    if path.startswith("/v1/trace/"):
        return "/v1/trace/<id>"
    if path.startswith("/v1/jobs/"):
        suffix = path.rsplit("/", 1)[-1]
        if suffix in ("cancel", "result"):
            return f"/v1/jobs/<id>/{suffix}"
        return "/v1/jobs/<id>"
    return "other"


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared :class:`ReproClient`."""

    server: "ReproService"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _respond(
        self,
        status: int,
        document: dict | str,
        *,
        content_type: str = "application/json",
        headers: dict | None = None,
    ) -> None:
        text = document if isinstance(document, str) else dumps_canonical(document)
        body = (text + "\n").encode() if not text.endswith("\n") else text.encode()
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
    ) -> None:
        document = {"schema_version": SCHEMA_VERSION, "error": message}
        document.update(extra or {})
        headers = None
        if retry_after_s is not None:
            document["retry_after_s"] = retry_after_s
            headers = {"Retry-After": str(max(1, round(retry_after_s)))}
        self._respond(status, document, headers=headers)

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
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

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        # Adopt the caller's trace context (if any) for the whole
        # request, and wrap the route in a server-side span, so
        # engine/job/cell spans opened on this handler thread nest
        # under the remote caller's span.
        remote = TRACER.parse_header(self.headers.get(TRACE_HEADER))
        if remote is not None and TRACER.enabled:
            with TRACER.activate(*remote):
                with TRACER.span(
                    "http", route=_route_label(url.path), method=method
                ):
                    self._dispatch_inner(method, url)
        elif TRACER.enabled:
            with TRACER.span(
                "http", route=_route_label(url.path), method=method
            ):
                self._dispatch_inner(method, url)
        else:
            self._dispatch_inner(method, url)

    def _dispatch_inner(self, method: str, url) -> None:
        started = time.perf_counter()
        try:
            if method == "GET":
                self._route_get(url)
            else:
                self._route_post(url)
        except QuotaExceeded as error:
            self._error(
                429,
                str(error),
                extra={"reason": error.reason, "tenant": error.tenant},
                retry_after_s=error.retry_after_s,
            )
        except ReproError as error:
            self._error(400, str(error))
        finally:
            self.server.metrics.observe(
                "repro_http_request_seconds",
                "HTTP request latency per route",
                time.perf_counter() - started,
                route=_route_label(url.path),
                method=method,
            )

    def _route_get(self, url) -> None:
        if url.path == "/v1/scenarios":
            params = _params_from_query(url.query)
            self._list_scenarios(params)
        elif url.path == "/v1/progress":
            self._progress(_params_from_query(url.query))
        elif url.path == "/v1/healthz":
            self._healthz()
        elif url.path == "/metrics":
            self._metrics(_params_from_query(url.query))
        elif url.path == "/v1/worker/health":
            self._worker_health()
        elif url.path == "/v1/worker/run":
            self._error(405, "use POST for /v1/worker/run")
        elif url.path == "/v1/jobs":
            self._jobs_list(_params_from_query(url.query))
        elif url.path.startswith("/v1/jobs/"):
            self._jobs_get(url.path)
        elif url.path == "/v1/slo":
            self._slo()
        elif url.path.startswith("/v1/trace/"):
            self._trace(url.path)
        elif url.path in _RUN_ROUTES:
            params = _params_from_query(url.query)
            self._run(request_from_text(_RUN_ROUTES[url.path], params))
        else:
            self._error(404, f"unknown route {url.path!r}")

    def _route_post(self, url) -> None:
        if url.path in _RUN_ROUTES:
            body = self._read_json_body()
            self._run(request_from_dict({**body, "type": _RUN_ROUTES[url.path]}))
        elif url.path == "/v1/worker/run":
            self._worker_run(self._read_json_body())
        elif url.path == "/v1/jobs":
            self._jobs_submit(self._read_json_body())
        elif url.path.startswith("/v1/jobs/") and url.path.endswith("/cancel"):
            self._jobs_cancel(url.path)
        elif url.path == "/v1/worker/health":
            self._error(405, "use GET for /v1/worker/health")
        elif url.path in (
            "/v1/progress", "/v1/scenarios", "/v1/healthz", "/metrics",
            "/v1/slo",
        ) or url.path.startswith("/v1/trace/"):
            self._error(405, f"use GET for {url.path}")
        else:
            self._error(404, f"unknown route {url.path!r}")

    # -- handlers ----------------------------------------------------------

    def _list_scenarios(self, params: dict) -> None:
        unknown = set(params) - {"kind", "tag"}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario-listing parameters {sorted(unknown)}"
            )
        kind = params.get("kind")
        if kind is not None and kind not in ("ch4", "ch5"):
            raise ConfigurationError(
                f"kind must be 'ch4' or 'ch5', got {kind!r}"
            )
        descriptors = self.server.client.list_scenarios(
            kind=kind, tag=params.get("tag")
        )
        self._respond(200, scenarios_document(descriptors))

    def _progress(self, params: dict) -> None:
        """Live engine-run snapshots from the process-wide broker."""
        unknown = set(params) - {"key"}
        if unknown:
            raise ConfigurationError(
                f"unknown progress parameters {sorted(unknown)}"
            )
        self._respond(200, {
            "schema_version": SCHEMA_VERSION,
            "runs": PROGRESS.snapshot(params.get("key")),
        })

    def _healthz(self) -> None:
        """Liveness + queue summary (mounted with or without --jobs)."""
        jobs = self.server.jobs
        self._respond(200, {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "role": self.server.role,
            "pid": os.getpid(),
            "version": __version__,
            "wire_version": WIRE_VERSION,
            "uptime_s": round(self.server.uptime_s(), 3),
            "jobs": None if jobs is None else jobs.health(),
        })

    def _metrics(self, params: dict) -> None:
        """The metrics registry, as Prometheus text or JSON."""
        fmt = params.get("format", "text")
        if fmt not in ("text", "json"):
            raise ConfigurationError(
                f"metrics format must be 'text' or 'json', got {fmt!r}"
            )
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

    def _slo(self) -> None:
        """Current SLO verdicts from the service's metrics registry."""
        jobs = self.server.jobs
        if jobs is not None:
            jobs.publish_usage_metrics()
        document = slo_document(self.server.metrics)
        document["schema_version"] = SCHEMA_VERSION
        self._respond(200, document)

    def _trace(self, path: str) -> None:
        """One trace's spans from the in-process ring.

        ``?format=chrome`` (the default) answers with a Chrome
        trace-event document; ``?format=spans`` with the raw span
        dicts.  Unknown trace ids answer 404 — the ring is bounded, so
        old traces age out.
        """
        trace_id = path[len("/v1/trace/"):]
        url = urlparse(self.path)
        params = _params_from_query(url.query)
        fmt = params.get("format", "chrome")
        if fmt not in ("chrome", "spans"):
            raise ConfigurationError(
                f"trace format must be 'chrome' or 'spans', got {fmt!r}"
            )
        spans = TRACER.spans(trace_id)
        if not spans:
            self._error(404, f"no spans retained for trace {trace_id!r}")
            return
        if fmt == "spans":
            self._respond(200, {
                "schema_version": SCHEMA_VERSION,
                "trace_id": trace_id,
                "spans": [span.to_dict() for span in spans],
            })
            return
        self._respond(200, chrome_trace(spans))

    # -- jobs --------------------------------------------------------------

    def _jobs_manager(self):
        jobs = self.server.jobs
        if jobs is None:
            self._error(
                503,
                "the jobs service is not enabled on this instance "
                "(start it with 'repro serve --jobs')",
                extra={"reason": "jobs_disabled"},
            )
            return None
        return jobs

    def _jobs_submit(self, body: dict) -> None:
        jobs = self._jobs_manager()
        if jobs is None:
            return
        self._respond(202, jobs.submit_body(body))

    def _jobs_list(self, params: dict) -> None:
        jobs = self._jobs_manager()
        if jobs is None:
            return
        unknown = set(params) - {"tenant"}
        if unknown:
            raise ConfigurationError(
                f"unknown job-listing parameters {sorted(unknown)}"
            )
        self._respond(200, jobs.list_document(params.get("tenant")))

    def _job_id_from(self, path: str, suffix: str = "") -> str | None:
        parts = path.split("/")
        # /v1/jobs/<id> or /v1/jobs/<id>/<suffix>
        expected = 4 if not suffix else 5
        if len(parts) != expected or (suffix and parts[4] != suffix):
            self._error(404, f"unknown route {path!r}")
            return None
        return parts[3]

    def _jobs_get(self, path: str) -> None:
        jobs = self._jobs_manager()
        if jobs is None:
            return
        if path.endswith("/result"):
            job_id = self._job_id_from(path, "result")
            if job_id is None:
                return
            status, document = jobs.result_document(job_id)
            self._respond(status, document)
            return
        job_id = self._job_id_from(path)
        if job_id is None:
            return
        document = jobs.status_document(job_id)
        if document is None:
            self._error(404, f"unknown job {job_id!r}")
        else:
            self._respond(200, document)

    def _jobs_cancel(self, path: str) -> None:
        jobs = self._jobs_manager()
        if jobs is None:
            return
        job_id = self._job_id_from(path, "cancel")
        if job_id is None:
            return
        self._respond(200, jobs.cancel(job_id))

    # -- workers / runs ----------------------------------------------------

    def _worker_health(self) -> None:
        """The fleet heartbeat probe: alive, and what this worker can run."""
        self._respond(200, {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "role": self.server.role,
            "pid": os.getpid(),
            "wire_version": WIRE_VERSION,
            "kinds": list(spec_kinds_with_types()),
        })

    def _reject_over_capacity(self) -> bool:
        """429 when every compute slot is busy; True when rejected."""
        if self.server.acquire_run_slot():
            return False
        self._error(
            429,
            f"all {self.server.max_concurrent_runs} compute slots are "
            "busy; retry, or queue the work through POST /v1/jobs",
            extra={"reason": "capacity"},
            retry_after_s=1.0,
        )
        return True

    def _worker_run(self, body: dict) -> None:
        """Execute wire-format cells against this worker's own store.

        The response carries each cell's encoded payload plus the same
        hit/compute-seconds provenance a local run would record, so the
        coordinator's envelopes are indistinguishable from local ones.
        """
        cells = body.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ConfigurationError(
                "worker run body needs a non-empty 'cells' list"
            )
        unknown = set(body) - {"cells", "window_slice", "resume"}
        if unknown:
            raise ConfigurationError(
                f"unknown worker run fields {sorted(unknown)}"
            )
        window_slice = body.get("window_slice")
        if window_slice is not None and (
            isinstance(window_slice, bool)
            or not isinstance(window_slice, int)
            or window_slice < 1
        ):
            raise ConfigurationError(
                "window_slice must be a positive integer"
            )
        resume = body.get("resume") or {}
        if not isinstance(resume, dict):
            raise ConfigurationError(
                "worker run 'resume' must map cell keys to engine states"
            )
        if self._reject_over_capacity():
            return
        try:
            specs = [cell_from_wire(raw) for raw in cells]
            results = [
                self.server.client.worker_run(
                    spec, window_slice, resume.get(spec.key())
                )
                for spec in specs
            ]
        finally:
            self.server.release_run_slot()
        self._respond(
            200, {"schema_version": SCHEMA_VERSION, "results": results}
        )

    def _run(self, request) -> None:
        type_tag = request.TYPE
        if getattr(request, "jobs", 1) != 1:
            # Forking a worker pool inside a handler thread of a
            # multithreaded server risks child deadlocks; HTTP callers
            # get parallelism by issuing concurrent requests against
            # the shared cache instead.
            raise ConfigurationError(
                "jobs is not supported over HTTP; issue concurrent "
                "requests instead (the cache is shared)"
            )
        if self._reject_over_capacity():
            return
        # Release the slot before responding: a client that reads the
        # body and immediately sends its next request must find the
        # slot free, never a spurious 429.
        try:
            client = self.server.client
            if type_tag == "simulate":
                document = client.simulate(request).to_json()
            elif type_tag == "server":
                document = client.server(request).to_json()
            elif type_tag == "compare":
                document = results_document(client.compare(request))
            elif type_tag == "campaign":
                document = results_document(list(client.run_campaign(request)))
            else:  # scenarios
                document = results_document(list(client.run_scenarios(request)))
        finally:
            self.server.release_run_slot()
        self._respond(200, document)


class ReproService(ThreadingHTTPServer):
    """Threaded HTTP server exposing the client API.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`port` (or pass ``port_file`` to :func:`serve`).

    ``jobs`` mounts a :class:`~repro.jobs.JobsManager` under
    ``/v1/jobs`` (the caller starts/stops it — normally :func:`serve`).
    ``max_concurrent_runs`` bounds the simultaneously executing compute
    routes; excess requests get a structured 429.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        client: ReproClient | None = None,
        verbose: bool = False,
        role: str = "api",
        jobs=None,
        max_concurrent_runs: int | None = None,
    ) -> None:
        self.client = client if client is not None else ReproClient()
        self.verbose = verbose
        #: "api" for the front service, "worker" for fleet members.
        #: Purely informational — every instance serves all routes —
        #: but surfaced in banners and health documents so an operator
        #: can tell what a port was started as.
        self.role = role
        #: The mounted JobsManager (None = jobs routes answer 503).
        self.jobs = jobs
        #: One registry serves /metrics; shared with the jobs manager
        #: (which defaults to the process-wide METRICS), so engine,
        #: store, cluster, and scheduler series land in one scrape.
        self.metrics: MetricsRegistry = (
            jobs.metrics if jobs is not None else METRICS
        )
        if max_concurrent_runs is None:
            max_concurrent_runs = max(2, os.cpu_count() or 2)
        if max_concurrent_runs < 1:
            raise ConfigurationError("max_concurrent_runs must be >= 1")
        self.max_concurrent_runs = max_concurrent_runs
        self._run_slots = threading.BoundedSemaphore(max_concurrent_runs)
        self._started_monotonic = time.monotonic()
        super().__init__((host, port), _Handler)

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
    client: ReproClient | None = None,
    port_file: str | None = None,
    verbose: bool = False,
    role: str = "api",
    jobs=None,
    max_concurrent_runs: int | None = None,
) -> int:
    """Run the service until interrupted (the ``serve``/``worker`` subcommands).

    ``port_file`` writes the bound port to a file once listening —
    the hook CI, tests, and :class:`~repro.cluster.LocalFleet` use
    with ``--port 0``.  ``role="worker"`` only changes the banner and
    health document; fleet workers serve the full route table.

    With ``jobs`` (a :class:`~repro.jobs.JobsManager`), persisted jobs
    are recovered and the scheduler starts before the listener; SIGTERM
    (and Ctrl-C) drain — the in-flight window slice checkpoints and its
    job requeues — before the process exits, so ``kill <pid>`` never
    loses acknowledged work.
    """
    service = ReproService(
        host, port, client=client, verbose=verbose, role=role,
        jobs=jobs, max_concurrent_runs=max_concurrent_runs,
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
        LOG.info(
            "service.draining", "sigterm: draining in-flight slices",
            role=role,
        )
        # shutdown() must not run on the thread inside serve_forever()
        # (it would deadlock waiting for itself), and a signal handler
        # runs exactly there — hand the drain to a helper thread.
        threading.Thread(
            target=_drain_and_shutdown, name="repro-drain", daemon=True
        ).start()

    try:
        if jobs is not None:
            recovered = jobs.start()
            if recovered["requeued"]:
                LOG.info(
                    "service.recovered",
                    f"recovered {recovered['requeued']} queued/running "
                    f"job(s) from disk",
                    requeued=recovered["requeued"],
                )
        try:
            signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            pass  # not the main thread (tests drive serve() directly)
        if port_file:
            Path(port_file).write_text(f"{service.port}\n")
        label = "API" if role == "api" else role
        extras = " with jobs" if jobs is not None else ""
        LOG.info(
            "service.listening",
            f"serving repro {label}{extras} (schema {SCHEMA_VERSION}) "
            f"on {service.url}",
            role=role,
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
