"""The HTTP service mode: routes, errors, and CLI/HTTP byte-identity."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.specs import Chapter4Spec, Chapter5Spec, run_result_from_dict
from repro.api import SCHEMA_VERSION, ReproClient, ReproService, ResultEnvelope
from repro.api import service as service_module
from repro.api.http import ServiceError, call_json
from repro.campaign import MemoryStore
from repro.cli import main
from repro.cluster import WIRE_VERSION, cell_to_wire
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


def test_compare_route(service):
    status, document = _post(service, "/v1/compare", {"mix": "W1", "copies": 1})
    assert status == 200
    assert document["results"][0]["metrics"]["policy"] == "No-limit"
    assert len(document["results"]) == 8


def test_scenarios_run_route(service):
    status, document = _get(service, "/v1/scenarios/run?names=cold-aisle&copies=1")
    assert status == 200
    assert document["results"][0]["scenario"] == "cold-aisle"


def test_worker_health_route(service):
    status, document = _get(service, "/v1/worker/health")
    assert status == 200
    assert document["status"] == "ok"
    assert document["role"] == "api"  # `repro worker` reports "worker"
    assert document["wire_version"] == WIRE_VERSION
    assert {"ch4", "ch5"} <= set(document["kinds"])
    assert document["pid"] > 0


def test_worker_run_route_executes_wire_cells(service):
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    status, document = _post(
        service, "/v1/worker/run", {"cells": [cell_to_wire(spec)]}
    )
    assert status == 200
    assert document["schema_version"] == SCHEMA_VERSION
    (result,) = document["results"]
    assert result["key"] == spec.key()
    assert result["kind"] == "ch4"
    assert result["cache"] in ("hit", "miss")
    restored = run_result_from_dict(result["payload"])
    assert restored.runtime_s > 0
    # A repeat dispatch hits the worker's own cache.
    _, again = _post(
        service, "/v1/worker/run", {"cells": [cell_to_wire(spec)]}
    )
    assert again["results"][0]["cache"] == "hit"
    assert again["results"][0]["compute_seconds"] == 0.0


def test_worker_run_route_time_sliced_partial_then_resume(
    service, tmp_path, monkeypatch
):
    """A window_slice request returns a checkpoint for an unfinished
    cell; replaying the checkpoint finishes the cell with the same
    payload a whole-run dispatch produces."""
    from repro.campaign import GLOBAL_MEMORY, NullStore, run
    from repro.analysis.specs import run_result_to_dict

    # The cell must be cold or a cache hit short-circuits the slice:
    # private disk store (the service resolves the default stack per
    # request) and a cleared process memo.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    GLOBAL_MEMORY.clear()
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1, inlet_delta_c=-0.5)
    status, document = _post(
        service, "/v1/worker/run",
        {"cells": [cell_to_wire(spec)], "window_slice": 100},
    )
    assert status == 200
    (first,) = document["results"]
    assert first["key"] == spec.key()
    assert first["partial"] is True
    assert first["windows_done"] == 100
    assert first["resumed_from"] == 0
    state = first["state"]
    assert state["strategy"] == "ch4"
    assert state["windows"] == 100

    # Resume with a huge slice: the cell completes, warm.
    status, document = _post(
        service, "/v1/worker/run",
        {
            "cells": [cell_to_wire(spec)],
            "window_slice": 10_000_000,
            "resume": {spec.key(): state},
        },
    )
    assert status == 200
    (final,) = document["results"]
    assert "partial" not in final
    assert final["resumed_from"] == 100
    assert final["windows_done"] > 100
    expected = run(spec, store=NullStore())
    assert final["payload"] == run_result_to_dict(expected)


def test_progress_route_reports_engine_runs(service, tmp_path, monkeypatch):
    from repro.campaign import GLOBAL_MEMORY
    from repro.engine import PROGRESS

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    GLOBAL_MEMORY.clear()
    PROGRESS.clear()
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1, inlet_delta_c=-1.0)
    # Cold-run the cell through the worker route so the service's own
    # process hosts the engine (progress is process-local).
    _post(
        service, "/v1/worker/run",
        {"cells": [cell_to_wire(spec)], "window_slice": 10_000_000},
    )
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


def test_worker_route_errors(service):
    code, body = _error(service, "/v1/worker/run", data=b"{}")
    assert code == 400 and "non-empty 'cells'" in body["error"]
    code, body = _error(
        service, "/v1/worker/run", data=b'{"cells": [], "x": 1}'
    )
    assert code == 400 and "non-empty 'cells'" in body["error"]
    code, body = _error(
        service, "/v1/worker/run",
        data=json.dumps({"cells": [1], "extra": True}).encode(),
    )
    assert code == 400 and "unknown worker run fields" in body["error"]
    code, body = _error(
        service, "/v1/worker/run",
        data=json.dumps({"cells": [{"kind": "nope", "fields": {}}]}).encode(),
    )
    assert code == 400 and "no spec type" in body["error"]
    for window_slice in (True, False, 0, -5, 2.5, "100"):
        # ``True`` is an ``int`` subclass: it must not run a 1-window
        # slice.
        code, body = _error(
            service, "/v1/worker/run",
            data=json.dumps({
                "cells": [cell_to_wire(Chapter4Spec(copies=1))],
                "window_slice": window_slice,
            }).encode(),
        )
        assert code == 400, window_slice
        assert body["schema_version"] == SCHEMA_VERSION
        assert "window_slice must be a positive integer" in body["error"]
    code, body = _error(service, "/v1/worker/run")
    assert code == 405 and "use POST" in body["error"]
    code, body = _error(service, "/v1/worker/health", data=b"{}")
    assert code == 405 and "use GET" in body["error"]


def test_worker_run_rejects_invalid_ch5_cells(service):
    """An invalid Chapter 5 cell on the wire is a structured 400 before
    any window runs, never a 500 or a cached payload."""
    for fields in ({"time_slice_s": -1.0}, {"base_frequency_level": 9}):
        spec = Chapter5Spec(policy="no-limit", copies=1, **fields)
        code, body = _error(
            service, "/v1/worker/run",
            data=json.dumps({"cells": [cell_to_wire(spec)]}).encode(),
        )
        assert code == 400 and next(iter(fields)) in body["error"]


def test_worker_run_rejects_gangs_field(service):
    """Fleet dispatch is per cell: a body still carrying the retired
    ``gangs`` field is an unknown field, answered with a structured 400."""
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    key = spec.key()
    code, body = _error(
        service, "/v1/worker/run",
        data=json.dumps({
            "cells": [cell_to_wire(spec)], "gangs": [[key, key]],
        }).encode(),
    )
    assert code == 400
    assert body["schema_version"] == SCHEMA_VERSION
    assert "unknown worker run fields ['gangs']" in body["error"]


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


#: A cell no other test computes, so its resume state is always the
#: one restored.
_RESUME_SPEC = Chapter4Spec(mix="W3", policy="bw", copies=1, inlet_delta_c=0.37)


def _resume_state() -> dict:
    from repro.campaign import engine_for_spec

    engine = engine_for_spec(_RESUME_SPEC)
    engine.step_windows(10)
    return engine.checkpoint().to_dict()


def _t_amb_not_numeric(state: dict) -> None:
    state["thermal"]["t_amb"][0] = "x"


def _t_ambient_missing(state: dict) -> None:
    del state["thermal"]["t_ambient"]


def _traffic_bytes_not_numeric(state: dict) -> None:
    state["accumulators"]["traffic_bytes"] = "x"


def _scheduler_missing(state: dict) -> None:
    del state["strategy_state"]["scheduler"]


def _running_job_remaining_negative(state: dict) -> None:
    state["strategy_state"]["scheduler"]["slots"][0][2] = -1.0


@pytest.mark.parametrize(
    "defect",
    [
        _t_amb_not_numeric,
        _t_ambient_missing,
        _traffic_bytes_not_numeric,
        _scheduler_missing,
        _running_job_remaining_negative,
    ],
)
def test_worker_run_rejects_a_malformed_resume_state(one_slot_service, defect):
    """A broken checkpoint in a sliced worker run is a structured 400
    naming the defect, not a dropped connection, and the compute slot
    it took is released."""
    state = _resume_state()
    defect(state)
    code, body = _error(
        one_slot_service, "/v1/worker/run",
        data=json.dumps({
            "cells": [cell_to_wire(_RESUME_SPEC)],
            "window_slice": 50,
            "resume": {_RESUME_SPEC.key(): state},
        }).encode(),
    )
    assert code == 400
    assert body["schema_version"] == SCHEMA_VERSION
    assert "state" in body["error"] or "thermal" in body["error"]
    assert one_slot_service.acquire_run_slot()
    one_slot_service.release_run_slot()


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
    "/v1/worker/run": {
        "cells": [cell_to_wire(Chapter4Spec(mix="W1", policy="ts", copies=1))]
    },
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
    svc = ReproService(
        port=0, client=ReproClient(store=MemoryStore()), jobs=jobs
    )
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
    svc = ReproService(port=0, client=ReproClient(), verbose=True)
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


def test_cli_worker_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        ReproService, "serve_forever",
        lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
    )
    port_file = tmp_path / "port"
    assert main(["worker", "--port", "0", "--port-file", str(port_file)]) == 0
    assert int(port_file.read_text()) > 0
    assert "serving repro worker" in capsys.readouterr().out
