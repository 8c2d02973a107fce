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
from dataclasses import replace

import pytest

from repro.analysis.specs import Chapter4Spec
from repro.api import (
    SCHEMA_VERSION,
    ReproClient,
    ReproService,
    ResultEnvelope,
    SimulateRequest,
)
from repro.api import service as service_module
from repro.api.envelope import Provenance
from repro.api.http import ServiceError, call_json
from repro.campaign import MemoryStore
from repro.campaign.stores import cache as cache_module
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


def _reply(svc: ReproService, path: str, payload: dict | None = None) -> bytes:
    """One reply's raw body: a GET, or a POST of ``payload`` as JSON."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(svc.url + path, data=data)
    with urllib.request.urlopen(request) as response:
        return response.read()


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
    _await(lambda: timed() != before, "no request latency was recorded")
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
# The reply table: warm single-cell replies served from their bytes
# ---------------------------------------------------------------------------

_CELL_PATH = "/v1/simulate?mix=W1&policy=ts&copies=1"


@pytest.fixture
def fresh_service(tmp_path, monkeypatch):
    """A service over a default cache of its own (an empty disk store)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    with _serving(ReproService(port=0)) as svc:
        yield svc


def _no_compute(request):
    raise AssertionError("computed a reply the table holds")


def test_warm_simulate_replies_are_byte_identical(service):
    _reply(service, _CELL_PATH)  # computes the cell, or finds it in the store
    post = {"mix": "W1", "policy": "ts", "copies": 1}
    bodies = [_reply(service, _CELL_PATH) for _ in range(3)]
    bodies += [_reply(service, "/v1/simulate", post) for _ in range(3)]
    assert len(set(bodies)) == 1
    assert json.loads(bodies[0])["provenance"]["cache"] == "hit"


def test_warm_server_replies_are_byte_identical(service):
    path = "/v1/server?platform=PE1950&mix=W1&policy=bw&copies=1"
    _reply(service, path)
    bodies = {_reply(service, path) for _ in range(3)}
    assert len(bodies) == 1
    assert json.loads(bodies.pop())["provenance"]["cache"] == "hit"


def test_each_served_reply_counts_one_store_hit(fresh_service, monkeypatch):
    svc = fresh_service
    _reply(svc, _CELL_PATH)
    kept = _reply(svc, _CELL_PATH)
    monkeypatch.setattr(svc.client, "simulate", _no_compute)
    for _ in range(3):
        before = svc.metrics.counter_value(
            "repro_store_requests_total", cache="hit"
        )
        assert _reply(svc, _CELL_PATH) == kept
        assert svc.metrics.counter_value(
            "repro_store_requests_total", cache="hit"
        ) == before + 1


@pytest.mark.parametrize(
    "cache_env, answer", [("0", "miss"), ("1", "hit")], ids=["no-disk", "disk"]
)
def test_an_evicted_cell_answers_what_the_full_path_answers(
    fresh_service, monkeypatch, cache_env, answer
):
    """A cell the memo evicted is recomputed without a disk store (a
    fresh miss, not the kept bytes) and read back from one (the same
    hit bytes)."""
    svc = fresh_service
    monkeypatch.setenv("REPRO_CACHE", cache_env)
    monkeypatch.setattr(cache_module, "MEMO_LIMIT", 1)
    _reply(svc, _CELL_PATH)
    kept = _reply(svc, _CELL_PATH)
    _reply(svc, "/v1/simulate?mix=W1&policy=bw&copies=1")  # evicts _CELL_PATH
    again = _reply(svc, _CELL_PATH)
    assert json.loads(again)["provenance"]["cache"] == answer
    assert (again == kept) is (answer == "hit")


def test_a_miss_reply_is_never_kept(fresh_service):
    svc = fresh_service
    body = _reply(svc, _CELL_PATH)
    assert json.loads(body)["provenance"]["cache"] == "miss"
    assert svc._replies == {}


def test_a_coalesced_reply_is_never_kept(fresh_service):
    svc = fresh_service
    request = SimulateRequest(mix="W1", policy="ts", copies=1)
    svc.client.simulate(request)  # computes the cell
    plain = svc.client.simulate(request)
    assert plain.provenance.cache == "hit"
    coalesced = replace(
        plain, provenance=replace(plain.provenance, single_flight="coalesced")
    )
    body = svc.run_reply(lambda client, r: coalesced, request)
    assert json.loads(body)["provenance"]["single_flight"] == "coalesced"
    assert svc._replies == {}
    svc.run_reply(lambda client, r: plain, request)
    assert list(svc._replies) == [request]


def test_a_client_with_its_own_store_keeps_no_reply():
    svc = ReproService(port=0)
    svc.client = ReproClient(store=MemoryStore())
    with _serving(svc):
        bodies = [_reply(svc, _CELL_PATH) for _ in range(2)]
    assert json.loads(bodies[1])["provenance"]["cache"] == "hit"
    assert svc._replies == {}


def test_the_reply_table_holds_at_most_memo_limit(fresh_service, monkeypatch):
    svc = fresh_service
    monkeypatch.setattr(cache_module, "MEMO_LIMIT", 2)
    for policy in ("ts", "bw", "acg"):
        for _ in range(2):
            _reply(svc, f"/v1/simulate?mix=W1&policy={policy}&copies=1")
        assert len(svc._replies) <= 2
    assert [request.policy for request in svc._replies] == ["bw", "acg"]


def test_concurrently_kept_replies_stay_bounded_and_their_own(monkeypatch):
    """Sixteen threads keep replies at once under a short switch
    interval: each body is its own request's, and the table stays
    within ``MEMO_LIMIT`` while they insert and evict."""
    monkeypatch.setattr(cache_module, "MEMO_LIMIT", 4)
    svc = ReproService(port=0)
    errors = []

    def envelope(client, request) -> ResultEnvelope:
        return ResultEnvelope(
            kind="ch4", scenario=None, request={"copies": request.copies},
            metrics={}, provenance=Provenance("hit", f"key-{request.copies}"),
        )

    def keep(copies: int) -> None:
        request = SimulateRequest(copies=copies)
        try:
            for _ in range(50):
                body = json.loads(svc.run_reply(envelope, request))
                assert body["request"] == {"copies": copies}
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=keep, args=(n,)) for n in range(1, 17)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        svc.server_close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(svc._replies) <= 4


def test_a_served_reply_records_its_http_span(fresh_service, monkeypatch):
    from repro.obs.trace import TRACE_HEADER, TRACER

    svc = fresh_service
    _reply(svc, _CELL_PATH)
    _reply(svc, _CELL_PATH)
    monkeypatch.setattr(svc.client, "simulate", _no_compute)
    monkeypatch.setattr(TRACER, "enabled", True)
    trace_id, parent_id = "feedface0000beef", "abcd00000000beef"
    header = f"{TRACE_HEADER}: {trace_id}:{parent_id}\r\n"
    assert _raw(svc, "GET", _CELL_PATH, header)[0] == 200

    def http_spans() -> list:
        return [s for s in TRACER.spans(trace_id) if s.name == "http"]

    # The span closes just after the reply is written.
    _await(http_spans, "no http span was recorded")
    (span,) = http_spans()
    assert span.parent_id == parent_id
    assert span.args == {"route": "/v1/simulate", "method": "GET"}


# ---------------------------------------------------------------------------
# Handler threads: each accepts its own connections; a few wait between
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


def _await(condition, failure: str) -> None:
    """Wait up to 5 s until ``condition()`` holds."""
    deadline = time.monotonic() + 5.0
    while not condition():
        assert time.monotonic() < deadline, failure
        time.sleep(0.001)


def _await_accepting(svc: ReproService, count: int) -> None:
    """Wait up to 5 s until ``count`` handler threads wait in
    ``accept()`` (a thread waits again once its connection closed)."""
    _await(
        lambda: svc.accepting == count,
        f"{svc.accepting} handler threads wait in accept(), not {count}",
    )


def _handler_threads(before: set) -> list:
    """The live handler threads not in ``before`` (a thread snapshot
    taken before the service under test was built)."""
    return [
        thread for thread in threading.enumerate()
        if thread.name == "repro-http" and thread not in before
    ]


def test_sequential_connections_take_turns_on_the_waiting_threads(
    monkeypatch,
):
    """The kernel hands each connection to the longest-waiting thread
    in accept(), so sequential connections alternate over the
    ``_IDLE_ACCEPTORS`` waiting threads and start no further one."""
    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch)
    with _serving(svc):
        for _ in range(6):
            # urllib closes each connection (``Connection: close``).
            assert _get(svc, "/v1/healthz")[0] == 200
            _await_accepting(svc, service_module._IDLE_ACCEPTORS)
    assert len(threads) == 6
    assert len(set(threads)) <= service_module._IDLE_ACCEPTORS


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
    from repro.engine.progress import _CURRENT_LABEL, PROGRESS
    from repro.obs.trace import TRACE_HEADER, TRACER

    monkeypatch.setattr(TRACER, "enabled", True)
    trace_id, parent_id = "feedface0000cafe", "abcd00000000cafe"
    seen = []

    def leak(served: int) -> None:
        seen.append((TRACER.current_trace_id(), _CURRENT_LABEL.get()))
        TRACER.activate(trace_id, parent_id).__enter__()
        PROGRESS.track("leaked").__enter__()

    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch, after=leak)
    with _serving(svc):
        header = f"{TRACE_HEADER}: {trace_id}:{parent_id}\r\n"
        for headers in (header, "", ""):
            assert _raw(svc, "GET", "/v1/healthz", headers)[0] == 200
            _await_accepting(svc, service_module._IDLE_ACCEPTORS)
    # Three connections on at most two threads: one thread served two.
    assert len(threads) == 3 and len(set(threads)) < 3
    assert seen == [(None, None)] * 3
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
    bound = service_module._IDLE_ACCEPTORS
    with _serving(svc):
        # The handler raises after its reply; the server logs it.  Only
        # the first thread and the one it started exist, so two waiting
        # means the failed thread went back to accept().
        assert _raw(svc, "GET", "/v1/healthz")[0] == 200
        _await_accepting(svc, bound)
        # A client that resets its connection instead of reading.
        with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        _await(lambda: len(threads) == 2, "the reset connection was not served")
        _await_accepting(svc, bound)
        assert _raw(svc, "GET", "/v1/healthz")[0] == 200
        _await_accepting(svc, bound)
    assert len(errors) >= 1
    assert len(threads) == 3 and len(set(threads)) <= bound


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
        # The thread goes back to accept() once it logged the reset.
        _await_accepting(svc, service_module._IDLE_ACCEPTORS)
    assert events == [("info", "http.client_disconnected")]
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("waiting", [0, 1, 3])
def test_server_close_ends_every_handler_thread(monkeypatch, waiting):
    """server_close() ends every handler thread within 5 s, with 0
    threads waiting in accept() (the service never served), 1 (beside
    a thread busy on a kept-alive connection, whose client leaves after
    the close) or 3 (three threads that served at once)."""
    monkeypatch.setattr(service_module, "_IDLE_ACCEPTORS", max(2, waiting))
    before = set(threading.enumerate())
    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch)
    serving = threading.Thread(target=svc.serve_forever, daemon=True)
    held = [
        http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
        for _ in range(waiting)
    ]
    if waiting:
        serving.start()
        for connection in held:
            connection.request("GET", "/v1/healthz")
            assert connection.getresponse().read()
        # Connections open at once are served by as many threads.
        assert len(set(threads)) == waiting
    if waiting == 3:
        for connection in held:
            connection.close()
    _await_accepting(svc, waiting)
    svc.server_close()
    for connection in held:
        connection.close()
    _await(
        lambda: not _handler_threads(before),
        "a handler thread outlived server_close()",
    )
    assert svc.accepting == 0
    if waiting:
        svc.shutdown()
        serving.join(timeout=5)


def test_shutdown_makes_serve_forever_return():
    svc = ReproService(port=0)
    serving = threading.Thread(target=svc.serve_forever, daemon=True)
    serving.start()
    _await_accepting(svc, 1)
    svc.shutdown()
    serving.join(timeout=5)
    assert not serving.is_alive()
    svc.server_close()


def test_a_burst_is_served_and_leaves_at_most_the_idle_bound(monkeypatch):
    """Eight connections held open at once are each served, each by its
    own thread; once they close, the threads beyond the
    ``_IDLE_ACCEPTORS`` waiting ones exit."""
    before = set(threading.enumerate())
    svc = ReproService(port=0)
    threads = _recording(svc, monkeypatch)
    with _serving(svc):
        held = [
            http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
            for _ in range(8)
        ]
        try:
            for connection in held:
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200 and response.read()
        finally:
            for connection in held:
                connection.close()
        assert len(set(threads)) == 8
        bound = service_module._IDLE_ACCEPTORS
        _await(
            lambda: len(_handler_threads(before)) <= bound,
            "more than _IDLE_ACCEPTORS handler threads outlived the burst",
        )
        _await_accepting(svc, bound)


def test_accepts_racing_thread_exits_answer_every_connection(monkeypatch):
    """Eight clients against one waiting thread at most, under a short
    switch interval: each served thread's exit races the next accept,
    and every connection is still answered; no handler thread outlives
    server_close()."""
    monkeypatch.setattr(service_module, "_IDLE_ACCEPTORS", 1)
    before = set(threading.enumerate())
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
    _await(
        lambda: not _handler_threads(before),
        "a handler thread outlived server_close()",
    )


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


@pytest.mark.parametrize("path", ["/v1/slo", "/v1/progress"])
def test_removed_observability_routes_are_unknown(idle_jobs_service, path):
    svc, _ = idle_jobs_service
    status, body = _exchange(svc, "GET", path)
    assert status == 404
    assert body["schema_version"] == SCHEMA_VERSION
    assert f"unknown route {path!r}" in body["error"]


def test_the_trace_route_answers_chrome_json_only(idle_jobs_service):
    """``?format=spans`` is gone: the Chrome document is the one shape
    ``/v1/trace/<id>`` answers."""
    svc, _ = idle_jobs_service
    status, body = _exchange(
        svc, "GET", "/v1/trace/feedface00000001?format=spans"
    )
    assert status == 400
    assert "unknown query parameters ['format']" in body["error"]


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
    path = "/v1/simulate?mix=W1&policy=acg&copies=1"
    http_text = _reply(service, path).decode()
    assert cli_text == http_text
    assert _reply(service, path).decode() == cli_text
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
