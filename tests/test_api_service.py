"""The HTTP service mode: routes, errors, and CLI/HTTP byte-identity."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.specs import Chapter4Spec
from repro.api import SCHEMA_VERSION, ReproClient, ReproService, ResultEnvelope
from repro.api import service as service_module
from repro.api.http import ServiceError, call_json
from repro.campaign import MemoryStore
from repro.cli import main
from repro.jobs import JobsManager


@pytest.fixture(scope="module")
def service():
    """One threaded service over the default (suite-shared) store."""
    svc = ReproService(port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)


def _get(service: ReproService, path: str):
    with urllib.request.urlopen(service.url + path) as response:
        return response.status, json.loads(response.read())


def _post(service: ReproService, path: str, payload: dict):
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _error(service: ReproService, path: str, data: bytes | None = None):
    request = urllib.request.Request(service.url + path, data=data)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    return excinfo.value.code, json.loads(excinfo.value.read())


@contextlib.contextmanager
def _serving(svc: ReproService):
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        yield svc
    finally:
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)


def _raw(svc: ReproService, method: str, path: str, headers: str = ""):
    """One request over a raw socket: (status, headers, JSON body).

    The 5 s socket timeout turns a hung handler into a failure, and a
    dropped connection fails in ``begin()``.
    """
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{headers}\r\n"
    with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
        sock.sendall(head.encode())
        response = http.client.HTTPResponse(sock)
        response.begin()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read()),
        )


def test_scenarios_listing_route(service):
    status, document = _get(service, "/v1/scenarios")
    assert status == 200
    assert document["schema_version"] == SCHEMA_VERSION
    names = {d["name"] for d in document["scenarios"]}
    assert "hot-ambient" in names and "server-low-tdp" in names
    status, filtered = _get(service, "/v1/scenarios?kind=ch5")
    assert all(d["kind"] == "ch5" for d in filtered["scenarios"])
    assert len(filtered["scenarios"]) < len(document["scenarios"])


def test_simulate_route_get_and_post_agree(service):
    path = "/v1/simulate?mix=W1&policy=ts&copies=1"
    status, first = _get(service, path)
    assert status == 200
    envelope = ResultEnvelope.from_dict(first)
    assert envelope.metrics["policy"] == "DTM-TS"
    assert envelope.request == {
        "type": "simulate", "mix": "W1", "policy": "ts",
        "cooling": "AOHS_1.5", "ambient": "isolated", "copies": 1,
    }
    status, second = _post(
        service, "/v1/simulate", {"mix": "W1", "policy": "ts", "copies": 1}
    )
    assert second["provenance"]["cache"] == "hit"
    assert second["metrics"] == first["metrics"]


def test_server_route(service):
    status, raw = _get(service, "/v1/server?platform=PE1950&mix=W1&policy=bw&copies=1")
    assert status == 200
    envelope = ResultEnvelope.from_dict(raw)
    assert envelope.kind == "ch5"
    assert envelope.metrics["platform"] == "PE1950"


def test_campaign_route(service):
    status, document = _get(
        service, "/v1/campaign?grid=ch4&mixes=W1&policies=ts,bw&copies=1"
    )
    assert status == 200
    assert document["schema_version"] == SCHEMA_VERSION
    policies = [r["metrics"]["policy"] for r in document["results"]]
    assert policies == ["DTM-TS", "DTM-BW"]


def test_worker_health_route(service):
    """The fleet's worker routes are gone: each answers the structured
    404 of an unknown route, and the one health document, ``/v1/healthz``,
    no longer carries the fleet's ``role`` and ``wire_version``."""
    for method, path in (
        ("GET", "/v1/worker/health"), ("POST", "/v1/worker/run"),
    ):
        code, _, body = _raw(service, method, path)
        assert code == 404, path
        assert body["schema_version"] == SCHEMA_VERSION
        assert f"unknown route {path!r}" in body["error"]
    status, document = _get(service, "/v1/healthz")
    assert status == 200
    assert document["status"] == "ok" and document["pid"] > 0
    assert "role" not in document and "wire_version" not in document


def test_compare_route(service):
    status, document = _post(service, "/v1/compare", {"mix": "W1", "copies": 1})
    assert status == 200
    assert document["results"][0]["metrics"]["policy"] == "No-limit"
    assert len(document["results"]) == 8


def test_scenarios_run_route(service):
    status, document = _get(service, "/v1/scenarios/run?names=cold-aisle&copies=1")
    assert status == 200
    assert document["results"][0]["scenario"] == "cold-aisle"


def test_progress_route_reports_engine_runs(service, tmp_path, monkeypatch):
    from repro.engine.progress import PROGRESS

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    PROGRESS.clear()
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    # Cold-run the cell through the simulate route so the service's
    # own process hosts the engine (progress is process-local).
    _post(service, "/v1/simulate", {"mix": "W1", "policy": "ts", "copies": 1})
    status, document = _get(service, "/v1/progress")
    assert status == 200
    runs = document["runs"]
    assert spec.key() in runs
    record = runs[spec.key()]
    assert record["done"] is True and record["windows"] > 0
    status, filtered = _get(service, f"/v1/progress?key={spec.key()}")
    assert status == 200 and set(filtered["runs"]) == {spec.key()}
    status, empty = _get(service, "/v1/progress?key=nope")
    assert status == 200 and empty["runs"] == {}
    code, body = _error(service, "/v1/progress?bogus=1")
    assert code == 400 and "unknown query parameters ['bogus']" in body["error"]
    code, body = _error(service, "/v1/progress", data=b"{}")
    assert code == 405


@pytest.fixture(scope="module")
def one_slot_service():
    """A service with a single compute slot, so a leaked slot shows."""
    svc = ReproService(port=0, max_concurrent_runs=1)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)


def test_an_unexpected_handler_error_is_a_structured_500(
    one_slot_service, monkeypatch
):
    """A fault outside the library's errors answers a 500 error
    document; the request is still timed and its run slot freed."""
    svc = one_slot_service

    def broken(request):
        raise RuntimeError("injected fault")

    def timed() -> int:
        return svc.metrics.histogram_stats(
            "repro_http_request_seconds", route="/v1/simulate"
        )[0]

    monkeypatch.setattr(svc.client, "simulate", broken)
    url = svc.url + "/v1/simulate?mix=W1&policy=ts&copies=1"
    before = timed()
    with pytest.raises(ServiceError) as excinfo:
        call_json("GET", url, timeout_s=5)
    assert excinfo.value.status == 500
    assert excinfo.value.body["schema_version"] == SCHEMA_VERSION
    assert "RuntimeError" in excinfo.value.error
    # The latency lands just after the reply is written.
    deadline = time.monotonic() + 5.0
    while timed() == before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert timed() == before + 1
    monkeypatch.undo()
    assert call_json("GET", url, timeout_s=5)["request"]["mix"] == "W1"


def test_sequential_requests_never_see_spurious_429(monkeypatch):
    """Regression: the run slot is released before the response is
    written, so a client that reads one reply and sends the next
    request at once never finds the slot still held."""
    svc = ReproService(port=0, max_concurrent_runs=1)
    release = svc.release_run_slot

    def slow_release() -> None:
        time.sleep(0.05)
        release()

    monkeypatch.setattr(svc, "release_run_slot", slow_release)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    statuses = []
    try:
        for _ in range(5):
            try:
                statuses.append(
                    _get(svc, "/v1/simulate?mix=W1&policy=ts&copies=1")[0]
                )
            except urllib.error.HTTPError as error:
                statuses.append(error.code)
    finally:
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)
    assert statuses == [200] * 5


def test_keep_alive_requests_do_not_wait_for_a_delayed_ack(service):
    """Headers and body go out in two writes; with Nagle's algorithm on,
    each request on a kept-alive connection waited ~40 ms for the
    client's delayed ACK.  Twenty warm ones finish well under that."""
    path = "/v1/simulate?mix=W1&policy=ts&copies=1"
    connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        def get() -> dict:
            connection.request("GET", path)
            response = connection.getresponse()
            assert response.status == 200
            return json.loads(response.read())

        get()  # computes the cell, or finds it in the store
        start = time.perf_counter()
        replies = [get() for _ in range(20)]
        elapsed = time.perf_counter() - start
    finally:
        connection.close()
    assert {reply["provenance"]["cache"] for reply in replies} == {"hit"}
    assert elapsed < 0.4


# ---------------------------------------------------------------------------
# Handler threads: one per open connection, reused by the next
# ---------------------------------------------------------------------------


def _recording(svc: ReproService, monkeypatch, after=None) -> list:
    """Record the thread that serves each of ``svc``'s connections.

    ``after(n)`` runs once the n-th connection (from 1) is served,
    still on its thread and in its context.
    """
    threads = []
    finish = svc.finish_request

    def recording(request, client_address):
        threads.append(threading.current_thread())
        finish(request, client_address)
        if after is not None:
            after(len(threads))

    monkeypatch.setattr(svc, "finish_request", recording)
    return threads


def _await_idle(svc: ReproService, count: int = 1) -> None:
    """Wait up to 5 s until ``count`` handler threads wait for a
    connection (a thread goes idle just after its reply is written)."""
    deadline = time.monotonic() + 5.0
    while len(svc._idle) < count:
        assert time.monotonic() < deadline, "no handler thread went idle"
        time.sleep(0.001)


def test_sequential_connections_share_one_handler_thread(monkeypatch):
    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch)
    with _serving(svc):
        for _ in range(6):
            # urllib closes each connection (``Connection: close``).
            assert _get(svc, "/v1/healthz")[0] == 200
            _await_idle(svc)
    assert len(threads) == 6 and len(set(threads)) == 1


def test_neither_a_held_connection_nor_a_slow_compute_delays_healthz(
    monkeypatch,
):
    svc = ReproService(port=0)
    entered, release = threading.Event(), threading.Event()
    simulate = svc.client.simulate

    def slow(request):
        entered.set()
        release.wait(timeout=10)
        return simulate(request)

    monkeypatch.setattr(svc.client, "simulate", slow)
    replies = []
    with _serving(svc):
        held = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
        try:
            # A kept-alive connection: its thread now waits on it.
            held.request("GET", "/v1/healthz")
            assert held.getresponse().read()
            started = time.perf_counter()
            assert _raw(svc, "GET", "/v1/healthz")[0] == 200
            assert time.perf_counter() - started < 2.0
            busy = threading.Thread(target=lambda: replies.append(
                _get(svc, "/v1/simulate?mix=W1&policy=ts&copies=1")[0]
            ))
            busy.start()
            assert entered.wait(timeout=5)
            started = time.perf_counter()
            assert _raw(svc, "GET", "/v1/healthz")[0] == 200
            assert time.perf_counter() - started < 2.0
        finally:
            release.set()
            held.close()
        busy.join(timeout=30)
    assert not busy.is_alive() and replies == [200]


def test_a_reused_thread_starts_each_connection_in_a_fresh_context(
    monkeypatch,
):
    """The next connection on a thread neither joins the trace of the
    one before nor sees its progress label, even when that one left
    both set (as a missed reset would)."""
    from repro.engine.progress import PROGRESS
    from repro.obs.trace import TRACE_HEADER, TRACER

    monkeypatch.setattr(TRACER, "enabled", True)
    trace_id, parent_id = "feedface0000cafe", "abcd00000000cafe"
    seen = []

    def leak(served: int) -> None:
        seen.append((TRACER.current_trace_id(), PROGRESS.current_label()))
        TRACER.activate(trace_id, parent_id).__enter__()
        PROGRESS.track("leaked").__enter__()

    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch, after=leak)
    with _serving(svc):
        header = f"{TRACE_HEADER}: {trace_id}:{parent_id}\r\n"
        assert _raw(svc, "GET", "/v1/healthz", header)[0] == 200
        _await_idle(svc)
        assert _raw(svc, "GET", "/v1/healthz")[0] == 200
        _await_idle(svc)
    assert len(threads) == 2 and threads[0] is threads[1]
    assert seen == [(None, None), (None, None)]
    joined = [span for span in TRACER.spans(trace_id) if span.name == "http"]
    assert len(joined) == 1 and joined[0].parent_id == parent_id


def test_a_failed_connection_leaves_its_thread_reusable(monkeypatch):
    svc = ReproService(port=0)
    errors = []

    def fail_first(served: int) -> None:
        if served == 1:
            raise RuntimeError("injected connection fault")

    threads = _recording(svc, monkeypatch, after=fail_first)
    monkeypatch.setattr(
        svc, "handle_error", lambda request, address: errors.append(address)
    )
    with _serving(svc):
        # The handler raises after its reply; the server logs it.
        assert _raw(svc, "GET", "/v1/healthz")[0] == 200
        _await_idle(svc)
        # A client that resets its connection instead of reading.
        with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        _await_idle(svc)
        assert _raw(svc, "GET", "/v1/healthz")[0] == 200
        _await_idle(svc)
    assert len(errors) >= 1
    assert len(threads) == 3 and len(set(threads)) == 1


def test_a_client_reset_mid_reply_is_a_logged_disconnect(monkeypatch, capfd):
    """A client that resets its connection while its reply is being
    written is no server fault: one info-level
    ``http.client_disconnected`` event, no error-level event, no 500
    written to the dead socket and nothing on stderr."""
    svc = ReproService(port=0)
    events = []
    monkeypatch.setattr(
        service_module.LOG, "_emit",
        lambda level, event, message, fields: events.append((level, event)),
    )
    entered, reset = threading.Event(), threading.Event()
    respond = service_module._Handler._respond

    def after_the_reset(handler, *args, **kwargs) -> None:
        entered.set()
        reset.wait(timeout=5)
        time.sleep(0.05)  # the RST reaches the server's socket
        respond(handler, *args, **kwargs)

    monkeypatch.setattr(service_module._Handler, "_respond", after_the_reset)
    with _serving(svc):
        sock = socket.create_connection(("127.0.0.1", svc.port), timeout=5)
        sock.sendall(
            b"GET /metrics?format=json HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        )
        assert entered.wait(timeout=5)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        reset.set()
        _await_idle(svc)
    assert events == [("info", "http.client_disconnected")]
    assert capfd.readouterr().err == ""


def test_server_close_ends_every_idle_handler_thread(monkeypatch):
    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch)
    with _serving(svc):
        # Two connections open at once are served by two threads.
        first = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
        second = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
        for connection in (first, second):
            connection.request("GET", "/v1/healthz")
            assert connection.getresponse().read()
        first.close()
        second.close()
        _await_idle(svc, 2)
    assert len(set(threads)) == 2
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_an_idle_handler_thread_exits_after_its_idle_period(monkeypatch):
    monkeypatch.setattr(service_module, "_HANDLER_IDLE_S", 0.05)
    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch)
    with _serving(svc):
        assert _get(svc, "/v1/healthz")[0] == 200
        threads[0].join(timeout=5)
        assert not threads[0].is_alive() and svc._idle == []
        # The next connection starts a new thread.
        assert _get(svc, "/v1/healthz")[0] == 200
    assert len(threads) == 2 and threads[0] is not threads[1]



def test_hand_offs_racing_idle_exits_answer_every_connection(monkeypatch):
    """Eight clients against handler threads that give up after 1 ms
    idle, under a short switch interval: hand-offs race the threads'
    exits, and every connection is still answered."""
    monkeypatch.setattr(service_module, "_HANDLER_IDLE_S", 0.001)
    svc = ReproService(port=0)
    statuses = []

    def client() -> None:
        for _ in range(25):
            statuses.append(_raw(svc, "GET", "/v1/healthz")[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _serving(svc):
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    assert statuses == [200] * 200

def test_jobs_rejected_over_http(service):
    code, body = _error(service, "/v1/campaign?grid=ch4&mixes=W1&policies=ts&copies=1&jobs=4")
    assert code == 400 and "jobs is not supported over HTTP" in body["error"]


def test_bad_content_length_is_a_structured_400(service):
    """A non-integer or negative Content-Length is refused before any
    read: never a dropped connection, never a handler blocked reading
    to end of stream."""
    for value in ("abc", "-1"):
        code, headers, body = _raw(
            service, "POST", "/v1/simulate", f"Content-Length: {value}\r\n"
        )
        assert code == 400, value
        assert headers["Content-Type"] == "application/json"
        assert body["schema_version"] == SCHEMA_VERSION
        assert "Content-Length must be a non-negative integer" in body["error"]


def test_error_responses(service, tmp_path):
    code, body = _error(service, "/nope")
    assert code == 404 and "unknown route" in body["error"]
    code, body = _error(service, "/v1/simulate?policy=warp")
    assert code == 400 and "unknown ch4 policy" in body["error"]
    code, body = _error(service, "/v1/simulate?copies=two")
    assert code == 400 and "must be an integer" in body["error"]
    code, body = _error(service, "/v1/scenarios?flavor=spicy")
    assert code == 400 and "unknown query parameters ['flavor']" in body["error"]
    code, body = _error(service, "/v1/scenarios?kind=ch6")
    assert code == 400 and "kind must be" in body["error"]
    code, body = _error(service, "/v1/simulate", data=b"{not json")
    assert code == 400 and "not valid JSON" in body["error"]
    code, body = _error(service, "/v1/simulate", data=b"[1, 2]")
    assert code == 400 and "JSON object" in body["error"]
    code, body = _error(service, "/v1/scenarios", data=b"{}")
    assert code == 405 and "use GET" in body["error"]
    code, body = _error(service, "/nope", data=b"{}")
    assert code == 404
    # A non-string value for a string field is a 400 naming the field,
    # not a dropped connection.
    for path, payload, field in (
        ("/v1/simulate", {"mix": {"a": 1}}, "mix"),
        ("/v1/server", {"platform": {"a": 1}}, "platform"),
        ("/v1/compare", {"mix": {"a": 1}}, "mix"),
        ("/v1/campaign", {"grid": ["ch4"]}, "grid"),
    ):
        code, body = _error(service, path, data=json.dumps(payload).encode())
        assert code == 400, path
        assert body["error"].startswith(f"{field} must be a string"), path
    code, body = _error(service, "/v1/simulate?mix=W99")
    assert code == 400 and "unknown workload mix 'W99'" in body["error"]
    # Every error body is itself versioned.
    assert body["schema_version"] == SCHEMA_VERSION
    # A known path asked with a method its route does not list is a
    # JSON 405 naming the allowed methods; an unknown path stays 404.
    for method in ("PUT", "DELETE"):
        code, headers, body = _raw(service, method, "/v1/simulate")
        assert code == 405 and headers["Allow"] == "GET, POST", method
        assert body["schema_version"] == SCHEMA_VERSION
        assert "use GET or POST" in body["error"]
    code, _, body = _raw(service, "PUT", "/nope")
    assert code == 404 and "unknown route" in body["error"]
    jobs = JobsManager(str(tmp_path / "jobs"), store=MemoryStore())
    with _serving(ReproService(port=0, jobs=jobs)) as svc:
        for method, path, allowed in (
            ("POST", "/v1/jobs/job-x", "GET"),
            ("POST", "/v1/jobs/job-x/result", "GET"),
            ("GET", "/v1/jobs/job-x/cancel", "POST"),
        ):
            code, headers, body = _raw(svc, method, path)
            assert code == 405 and headers["Allow"] == allowed, path
            assert body["schema_version"] == SCHEMA_VERSION
        # Every other method on every route of the table is a 405.
        for pattern, methods in service_module._ROUTES.items():
            path = pattern.replace("<id>", "job-x")
            for method in {"GET", "POST", "PUT", "DELETE", "PATCH"} - set(methods):
                code, headers, _ = _raw(svc, method, path)
                assert code == 405, (method, path)
                assert headers["Allow"] == ", ".join(methods), (method, path)


#: A valid body for each POST row, so a refusal can only come from the
#: query string.
_CELL = {"mix": "W1", "policy": "ts", "copies": 1}
_POST_BODIES = {
    "/v1/simulate": _CELL,
    "/v1/server": {"mix": "W1", "policy": "bw", "copies": 1},
    "/v1/compare": {"mix": "W1", "copies": 1},
    "/v1/campaign": {
        "grid": "ch4", "mixes": ["W1"], "policies": ["ts"], "copies": 1,
    },
    "/v1/scenarios/run": {"names": ["hot-ambient"]},
    "/v1/jobs": {"request": {"type": "simulate", **_CELL}},
}


@pytest.fixture(scope="module")
def idle_jobs_service(tmp_path_factory):
    """A jobs-enabled service whose scheduler never starts, holding one
    queued job for the ``<id>`` routes."""
    jobs = JobsManager(
        str(tmp_path_factory.mktemp("jobs")), store=MemoryStore()
    )
    queued = jobs.submit_body({"request": {"type": "simulate", **_CELL}})
    svc = ReproService(port=0, jobs=jobs)
    svc.client = ReproClient(store=MemoryStore())
    with _serving(svc):
        yield svc, queued["job"]["id"]


def _exchange(svc: ReproService, method: str, path: str, body=None):
    """One request with an optional JSON body: (status, JSON document)."""
    connection = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
    try:
        data = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=data)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize(
    "method, pattern",
    [
        (method, pattern)
        for pattern, methods in service_module._ROUTES.items()
        for method in methods
    ],
)
def test_every_route_refuses_a_stray_query_parameter(
    idle_jobs_service, method, pattern
):
    """Each table row names the query parameters it accepts; any other
    is a structured 400 before the handler runs."""
    svc, job_id = idle_jobs_service
    before = [r.to_dict() for r in svc.jobs.queue.list_records()]
    status, body = _exchange(
        svc, method, pattern.replace("<id>", job_id) + "?stray=1",
        _POST_BODIES.get(pattern) if method == "POST" else None,
    )
    assert status == 400, body
    assert body["schema_version"] == SCHEMA_VERSION
    assert body["error"].startswith(
        f"unknown query parameters ['stray'] for {method} {pattern}"
    )
    # Nothing was submitted or cancelled.
    assert [r.to_dict() for r in svc.jobs.queue.list_records()] == before


def test_query_parameters_follow_the_route_table(idle_jobs_service):
    svc, _ = idle_jobs_service
    # A POST run route takes its request from the body alone: a valid
    # body does not make a query string acceptable.
    status, body = _exchange(
        svc, "POST", "/v1/simulate?policy=warp&mix=W99", _CELL
    )
    assert status == 400
    assert "unknown query parameters ['mix', 'policy']" in body["error"]
    # The parameters each row does accept keep working.
    for path in (
        "/metrics?format=json",
        "/v1/progress?key=nope",
        "/v1/scenarios?kind=ch4&tag=x",
        "/v1/jobs?tenant=default",
    ):
        status, _ = _exchange(svc, "GET", path)
        assert status == 200, path


def test_call_json_maps_every_failure_to_one_error(service):
    """A JSON error answer keeps its status and body; a reply that is
    not a JSON object, or no reply, has no status."""
    with pytest.raises(ServiceError) as excinfo:
        call_json("GET", service.url + "/nope", timeout_s=5)
    assert excinfo.value.status == 404
    assert excinfo.value.error == "unknown route '/nope'"
    assert excinfo.value.body["schema_version"] == SCHEMA_VERSION
    assert "GET " + service.url + "/nope answered 404" in str(excinfo.value)
    # The Prometheus text of /metrics is a 200 without a JSON object;
    # http.server's own 501 page for an unknown method is not JSON.
    for method, path in (("GET", "/metrics"), ("OPTIONS", "/v1/simulate")):
        with pytest.raises(ServiceError) as excinfo:
            call_json(method, service.url + path, timeout_s=5)
        assert excinfo.value.status is None, method
        assert excinfo.value.body == {} and excinfo.value.retry_after_s is None
    with pytest.raises(ServiceError) as excinfo:
        call_json("GET", "http://127.0.0.1:1/v1/healthz", timeout_s=5)
    assert excinfo.value.status is None and "failed" in str(excinfo.value)


def test_cli_json_and_http_are_byte_identical(service, capsys):
    """The acceptance check: warm cell, CLI --json == curl body."""
    args = ["simulate", "--mix", "W1", "--policy", "acg", "--copies", "1",
            "--json"]
    assert main(args) == 0  # warm the shared cache
    capsys.readouterr()
    assert main(args) == 0
    cli_text = capsys.readouterr().out
    with urllib.request.urlopen(
        service.url + "/v1/simulate?mix=W1&policy=acg&copies=1"
    ) as response:
        http_text = response.read().decode()
    assert cli_text == http_text
    envelope = ResultEnvelope.from_dict(json.loads(http_text))
    assert envelope.provenance.cache == "hit"
    assert envelope.provenance.compute_seconds == 0.0


def test_verbose_logging_path(capsys):
    svc = ReproService(port=0, verbose=True)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        _get(svc, "/v1/scenarios")
    finally:
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)


def test_serve_writes_port_file_and_stops(tmp_path, monkeypatch, capsys):
    """serve() announces, writes the port file, and exits cleanly."""
    monkeypatch.setattr(
        ReproService, "serve_forever",
        lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
    )
    port_file = tmp_path / "port"
    code = service_module.serve(port=0, port_file=str(port_file))
    assert code == 0
    assert int(port_file.read_text()) > 0
    assert "serving repro API" in capsys.readouterr().out


def test_cli_serve_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        ReproService, "serve_forever",
        lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
    )
    port_file = tmp_path / "port"
    assert main(["serve", "--port", "0", "--port-file", str(port_file)]) == 0
    assert port_file.exists()
    assert "serving repro API" in capsys.readouterr().out


def test_cli_worker_subcommand(capsys):
    """``repro worker`` left with the fleet: it is an unknown command."""
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--port", "0"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'worker'" in capsys.readouterr().err
