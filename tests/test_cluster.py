"""repro.cluster: wire format, execution backends, HTTP coordinator.

Fleet tests that boot real worker subprocesses live in
``test_cluster_fleet.py``; everything here runs against in-process
executors (or an in-process :class:`ReproService`), so it stays fast.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.api import ReproService
from repro.campaign import (
    Campaign,
    JsonDirStore,
    MemoryStore,
    register_runner,
    register_spec_type,
    run_payload,
    spec_key,
    spec_type_for,
    sweep,
)
from repro.cluster import (
    BACKEND_CHOICES,
    HttpWorkerBackend,
    LocalProcessBackend,
    SerialBackend,
    backend_for,
    cell_from_wire,
    cell_to_wire,
)
from repro.engine.gang import plan_gangs
from repro.errors import ClusterError, ConfigurationError
from repro.scenarios import get_scenario

# ---------------------------------------------------------------------------
# Synthetic specs (cheap cells for engine/coordinator mechanics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSquareSpec:
    kind: ClassVar[str] = "cluster-square"

    value: int = 2

    def key(self) -> str:
        return spec_key(self)


@dataclass(frozen=True)
class WirelessSpec:
    """Runnable locally, but with no registered spec type — a worker
    that receives it over the wire must reject the cell."""

    kind: ClassVar[str] = "cluster-wireless"

    value: int = 1

    def key(self) -> str:
        return spec_key(self)


class _SquareEngine:
    """The smallest engine ``run_cell`` runs whole: one window, no state."""

    windows = 1

    def __init__(self, spec, extra_observers: tuple = ()) -> None:
        self.spec = spec

    def run_to_completion(self) -> dict:
        return {"value": self.spec.value, "square": self.spec.value**2}


register_runner(
    "cluster-square", _SquareEngine, encode=dict, decode=dict,
    spec_type=ClusterSquareSpec,
)
register_runner("cluster-wireless", _SquareEngine, encode=dict, decode=dict)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_wire_round_trips_every_registered_kind():
    ch4 = Chapter4Spec(mix="W3", policy="acg", cooling="FDHS_1.0", copies=1)
    ch5 = Chapter5Spec(platform="SR1500AL", mix="W2", policy="comb", copies=1)
    scenario_cell = get_scenario("hot-ambient").spec(copies=1)
    square = ClusterSquareSpec(7)
    for spec in (ch4, ch5, scenario_cell, square):
        rebuilt = cell_from_wire(cell_to_wire(spec))
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()


def test_wire_preserves_scenario_label():
    cell = get_scenario("cold-aisle").spec(copies=1)
    assert cell_from_wire(cell_to_wire(cell)).scenario == "cold-aisle"


def test_wire_rejects_malformed_cells():
    with pytest.raises(ConfigurationError, match="JSON object"):
        cell_from_wire([1, 2])
    with pytest.raises(ConfigurationError, match="wire_version"):
        cell_from_wire({"wire_version": 99, "kind": "ch4", "fields": {}})
    with pytest.raises(ConfigurationError, match="kind"):
        cell_from_wire({"fields": {}})
    with pytest.raises(ConfigurationError, match="'fields'"):
        cell_from_wire({"kind": "ch4"})
    with pytest.raises(ConfigurationError, match="no spec type"):
        cell_from_wire({"kind": "no-such-kind", "fields": {}})
    with pytest.raises(ConfigurationError, match="cannot rebuild"):
        cell_from_wire({"kind": "ch4", "fields": {"bogus_field": 1}})
    with pytest.raises(ConfigurationError, match="dataclass"):
        cell_to_wire(object())


def test_wire_revalidates_through_spec_post_init():
    wire = cell_to_wire(Chapter4Spec(copies=1))
    wire["fields"]["bandwidth_scale"] = -2.0
    spec = cell_from_wire(wire)  # dataclass accepts it...
    with pytest.raises(ConfigurationError):  # ...the runner rejects it
        run_payload(spec, MemoryStore())


def test_spec_type_registry():
    assert spec_type_for("ch4") is Chapter4Spec
    assert spec_type_for("cluster-square") is ClusterSquareSpec
    with pytest.raises(ConfigurationError):
        spec_type_for("cluster-wireless")

    class NoKind:
        pass

    with pytest.raises(ConfigurationError, match="kind"):
        register_spec_type(NoKind)


# ---------------------------------------------------------------------------
# Serial / local-process backends through the campaign
# ---------------------------------------------------------------------------


def test_serial_and_process_backends_match():
    specs = sweep(ClusterSquareSpec, {"value": (1, 2, 3, 4, 5)})
    with SerialBackend() as serial:
        via_serial = Campaign(
            specs, store=MemoryStore(), backend=serial
        ).run()
    with LocalProcessBackend(jobs=3) as pool:
        via_pool = Campaign(specs, store=MemoryStore(), backend=pool).run()
    assert via_serial == via_pool
    assert [r["square"] for r in via_serial] == [1, 4, 9, 16, 25]


def test_process_backend_is_reused_across_campaigns_then_closed():
    with LocalProcessBackend(jobs=2) as backend:
        first = Campaign(
            sweep(ClusterSquareSpec, {"value": (41, 42)}),
            store=MemoryStore(), backend=backend,
        ).run()
        # Second campaign reuses the same pool (no respawn).
        pool = backend._pool
        assert pool is not None
        second = Campaign(
            sweep(ClusterSquareSpec, {"value": (43, 44)}),
            store=MemoryStore(), backend=backend,
        ).run()
        assert backend._pool is pool
    assert [r["square"] for r in first] == [1681, 1764]
    assert [r["square"] for r in second] == [1849, 1936]
    # A closed backend refuses further work.
    with pytest.raises(ConfigurationError, match="closed"):
        backend.submit_cells([])


def test_abandoned_iter_run_leaves_no_stray_processes():
    """Abandoning a parallel iterator must shut its owned pool down."""
    before = set(multiprocessing.active_children())
    specs = sweep(ClusterSquareSpec, {"value": tuple(range(60, 68))})
    iterator = Campaign(specs, jobs=2, store=MemoryStore()).iter_run()
    next(iterator)
    iterator.close()  # abandon mid-grid
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        stray = set(multiprocessing.active_children()) - before
        if not stray:
            break
        time.sleep(0.05)
    assert not stray, f"worker processes survived abandonment: {stray}"


def test_abandoned_iterator_keeps_borrowed_backend_usable():
    with LocalProcessBackend(jobs=2) as backend:
        specs = sweep(ClusterSquareSpec, {"value": (71, 72, 73)})
        iterator = Campaign(
            specs, store=MemoryStore(), backend=backend
        ).iter_run()
        next(iterator)
        iterator.close()
        # The borrowed backend is still open: a fresh campaign works.
        results = Campaign(
            sweep(ClusterSquareSpec, {"value": (74, 75)}),
            store=MemoryStore(), backend=backend,
        ).run()
        assert [r["square"] for r in results] == [5476, 5625]


class _ShortBackend(SerialBackend):
    """Delivers only the first submitted cell."""

    def iter_results(self):
        yield next(super().iter_results())


def test_backend_under_delivery_is_a_clean_error():
    specs = sweep(ClusterSquareSpec, {"value": (81, 82)})
    with pytest.raises(ConfigurationError, match="without delivering"):
        Campaign(specs, store=MemoryStore(), backend=_ShortBackend()).run()


class _RemoteLikeBackend(SerialBackend):
    """Computes against a private store, like a remote worker would."""

    in_process = False
    shares_disk = False

    def iter_results(self):
        private = MemoryStore()
        for key, spec in self._cells:
            payload, hit, seconds = run_payload(spec, private)
            yield key, payload, hit, seconds, {}


def test_remote_backend_payloads_backfill_the_campaign_store(
    tmp_path, monkeypatch
):
    # Explicit store: payloads computed elsewhere land in it.
    store = MemoryStore()
    Campaign(
        [ClusterSquareSpec(91)], store=store, backend=_RemoteLikeBackend()
    ).run()
    assert store.get(ClusterSquareSpec(91).key()) == {
        "value": 91, "square": 8281,
    }
    # Default store: payloads are written through to the disk layer,
    # which is what lets a later local process read a distributed run.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    Campaign([ClusterSquareSpec(92)], backend=_RemoteLikeBackend()).run()
    assert JsonDirStore(tmp_path).get(ClusterSquareSpec(92).key()) == {
        "value": 92, "square": 8464,
    }


# ---------------------------------------------------------------------------
# Backend factory
# ---------------------------------------------------------------------------


def test_backend_for_factory():
    assert isinstance(backend_for("serial"), SerialBackend)
    local = backend_for("local", jobs=3)
    assert isinstance(local, LocalProcessBackend) and local.jobs == 3
    http = backend_for("http", workers=["127.0.0.1:9001"])
    assert isinstance(http, HttpWorkerBackend)
    assert set(BACKEND_CHOICES) == {"local", "serial", "http"}
    with pytest.raises(ConfigurationError, match="needs --workers"):
        backend_for("http")
    with pytest.raises(ConfigurationError, match="only applies"):
        backend_for("serial", workers=["x:1"])
    with pytest.raises(ConfigurationError, match="only applies"):
        backend_for("local", workers=["x:1"])
    # --jobs shapes the local pool; elsewhere it must fail loudly
    # rather than be silently ignored.
    with pytest.raises(ConfigurationError, match="jobs does not apply"):
        backend_for("serial", jobs=4)
    with pytest.raises(ConfigurationError, match="add more --workers"):
        backend_for("http", jobs=4, workers=["127.0.0.1:9001"])
    with pytest.raises(ConfigurationError, match="unknown backend"):
        backend_for("quantum")
    with pytest.raises(ConfigurationError, match="unknown backend"):
        backend_for("vector")


def test_http_backend_validates_configuration():
    with pytest.raises(ConfigurationError, match="at least one"):
        HttpWorkerBackend([])
    with pytest.raises(ConfigurationError, match="duplicate"):
        HttpWorkerBackend(["127.0.0.1:9001", "http://127.0.0.1:9001/"])
    with pytest.raises(ConfigurationError, match="http"):
        HttpWorkerBackend(["ftp://files.example"])
    backend = HttpWorkerBackend(["127.0.0.1:9001"])
    assert backend._workers[0].url == "http://127.0.0.1:9001"


# ---------------------------------------------------------------------------
# HTTP coordinator against an in-process service
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path, monkeypatch):
    """An in-process ReproService doubling as a worker (private cache)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "service-cache"))
    svc = ReproService(port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)


def test_http_backend_runs_cells_through_a_service(service):
    specs = sweep(ClusterSquareSpec, {"value": (5, 6, 7)})
    store = MemoryStore()
    with HttpWorkerBackend([service.url]) as backend:
        results = Campaign(specs, store=store, backend=backend).run()
        stats = backend.fleet_stats()
    assert [r["square"] for r in results] == [25, 36, 49]
    # Coordinator merged the worker payloads into the campaign store.
    assert store.get(ClusterSquareSpec(5).key()) == {"value": 5, "square": 25}
    assert stats[0]["completed_cells"] == 3 and stats[0]["alive"]


def test_http_backend_streams_in_spec_order(service):
    specs = sweep(ClusterSquareSpec, {"value": (11, 12, 13, 11)})
    with HttpWorkerBackend([service.url]) as backend:
        campaign = Campaign(specs, store=MemoryStore(), backend=backend)
        rows = [
            (spec.value, result["square"], hit)
            for spec, result, hit, _ in campaign.iter_run()
        ]
    # Spec order, and the duplicate cell is a hit on its repeat.
    assert rows == [
        (11, 121, False), (12, 144, False), (13, 169, False), (11, 121, True),
    ]


def test_http_backend_fatal_on_unknown_worker_kind(service):
    specs = [WirelessSpec(3)]
    with HttpWorkerBackend([service.url]) as backend:
        with pytest.raises(ClusterError, match="rejected cell"):
            Campaign(specs, store=MemoryStore(), backend=backend).run()


def test_http_backend_fails_fast_when_all_workers_unreachable():
    # Bind-then-close guarantees a connection-refused port.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_url = f"http://127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    backend = HttpWorkerBackend(
        [dead_url], max_attempts=2, blacklist_after=1,
        heartbeat_interval_s=0.2, health_timeout_s=0.5,
    )
    with backend:
        with pytest.raises(ClusterError):
            Campaign(
                [ClusterSquareSpec(21)], store=MemoryStore(), backend=backend
            ).run()


def test_http_backend_empty_submit_is_a_noop():
    backend = HttpWorkerBackend(["127.0.0.1:9001"])
    backend.submit_cells([])
    assert list(backend.iter_results()) == []
    backend.close()
    # Post-close semantics match LocalProcessBackend: loud, not silent.
    with pytest.raises(ConfigurationError, match="closed"):
        backend.submit_cells([])


def test_worker_route_runs_against_the_service_client_store():
    """/v1/worker/run computes through the service's configured client,
    so an embedded worker warms the same store every other route reads."""
    import json
    import urllib.request

    from repro.api import ReproClient

    store = MemoryStore()
    svc = ReproService(port=0, client=ReproClient(store=store))
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        spec = ClusterSquareSpec(77)
        request = urllib.request.Request(
            svc.url + "/v1/worker/run",
            data=json.dumps({"cells": [cell_to_wire(spec)]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            document = json.load(response)
    finally:
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)
    assert document["results"][0]["cache"] == "miss"
    assert store.get(spec.key()) == {"value": 77, "square": 5929}


def test_warm_local_store_cells_are_not_dispatched(service):
    """Cells the coordinator's store already holds never hit the wire."""
    store = MemoryStore()
    warm = ClusterSquareSpec(101)
    store.put(warm.key(), {"value": 101, "square": 10201})
    cold = ClusterSquareSpec(102)
    with HttpWorkerBackend([service.url]) as backend:
        rows = [
            (spec.value, result["square"], hit)
            for spec, result, hit, _ in Campaign(
                [warm, cold], store=store, backend=backend
            ).iter_run()
        ]
        stats = backend.fleet_stats()
    assert rows == [(101, 10201, True), (102, 10404, False)]
    # Only the cold cell was dispatched to the fleet.
    assert stats[0]["completed_cells"] == 1


# ---------------------------------------------------------------------------
# Coordinator liveness (white-box: dispatch state under the fleet lock)
# ---------------------------------------------------------------------------


def _pending_cell(key: str = "k"):
    from repro.cluster.http import _PendingCell

    return _PendingCell(key, {"wire_version": 1, "kind": "x", "fields": {}})


def test_take_reopens_cell_excluded_from_every_live_worker():
    """A cell whose exclusion set covers the live fleet must not hang:
    the dispatcher reopens it instead of polling forever."""
    backend = HttpWorkerBackend(["127.0.0.1:9001", "127.0.0.1:9002"])
    cell = _pending_cell()
    with backend._cond:
        backend._remaining = 1
        # The cell failed once on worker 0 while worker 1 was alive;
        # worker 1 has since died, leaving the cell undispatchable.
        cell.excluded = {backend._workers[0].url}
        backend._pending.append(cell)
        backend._workers[1].alive = False
    taken = backend._take_chunk(backend._workers[0], backend._generation)
    assert taken == [cell]
    assert not cell.excluded
    assert backend._workers[0].in_flight == {cell.key: cell}


def test_mark_worker_dead_rescues_in_flight_cells():
    """Heartbeat death requeues a hung worker's in-flight cells so the
    survivors pick them up before the HTTP timeout expires."""
    backend = HttpWorkerBackend(["127.0.0.1:9001", "127.0.0.1:9002"])
    hung = backend._workers[0]
    cell = _pending_cell()
    with backend._cond:
        backend._remaining = 1
        hung.in_flight[cell.key] = cell
    backend._mark_worker_dead(hung, backend._generation)
    assert not hung.alive
    assert not hung.in_flight
    assert list(backend._pending) == [cell]
    # The survivor can take the rescued cell immediately.
    taken = backend._take_chunk(backend._workers[1], backend._generation)
    assert taken == [cell]


def test_late_duplicate_delivery_is_deduplicated():
    """If a rescued cell's original request completes after the rescue
    copy already delivered, the duplicate result is dropped."""
    backend = HttpWorkerBackend(["127.0.0.1:9001", "127.0.0.1:9002"])
    first, second = backend._workers
    with backend._cond:
        backend._remaining = 1
    cell = _pending_cell()
    raw = {"key": "k", "payload": {"square": 1}, "cache": "miss",
           "compute_seconds": 0.1}
    backend._deliver(second, [(cell, raw)], [], backend._generation)
    backend._deliver(first, [(cell, raw)], [], backend._generation)
    assert backend._remaining == 0
    assert list(backend._results) == [("k", {"square": 1}, False, 0.1, {})]
    assert second.completed_cells == 1 and first.completed_cells == 0
    # A late *failure* of the already-delivered cell is likewise only
    # counted against the worker, never requeued.
    backend._requeue(first, [cell], "late socket error", backend._generation)
    assert not backend._pending
    assert first.consecutive_failures == 1


def test_http_backend_dispatch_option_validation():
    """Chunking and slicing knobs validate; the combination is refused
    (slicing is one cell per request by construction)."""
    from repro.errors import ConfigurationError

    workers = ["127.0.0.1:9001"]
    with pytest.raises(ConfigurationError, match="chunk_cells"):
        HttpWorkerBackend(workers, chunk_cells=0)
    with pytest.raises(ConfigurationError, match="window_slice"):
        HttpWorkerBackend(workers, window_slice=0)
    with pytest.raises(ConfigurationError, match="cannot be combined"):
        HttpWorkerBackend(workers, chunk_cells=4, window_slice=100)
    # Auto-chunking: two dispatch waves per slot; slicing forces 1.
    assert HttpWorkerBackend(workers)._auto_chunk(8) == 4
    assert HttpWorkerBackend(workers, window_slice=10)._auto_chunk(8) == 1
    # Huge grids cap at 16 cells per request, so the chunk count keeps
    # scaling with the worker count instead of serializing whole
    # shards behind single requests.
    assert HttpWorkerBackend(workers)._auto_chunk(1000) == 16
    two = ["127.0.0.1:9001", "127.0.0.1:9002"]
    assert HttpWorkerBackend(two)._auto_chunk(1000) == 16
    assert HttpWorkerBackend(two)._auto_chunk(8) == 2  # small grids unchanged


def test_batch_cells_validates():
    """No backend takes a gang width any more: ``batch_cells`` is an
    unknown argument everywhere, not a silently ignored one."""
    with pytest.raises(TypeError, match="batch_cells"):
        HttpWorkerBackend(["127.0.0.1:9001"], batch_cells=4)
    with pytest.raises(TypeError, match="batch_cells"):
        backend_for("serial", batch_cells=4)


# ---------------------------------------------------------------------------
# Gang planning (every cell runs solo)
# ---------------------------------------------------------------------------

#: Cheap Chapter 4 cells: an inlet family plus two thermally-sensitive
#: partners.
_BASE = Chapter4Spec(mix="W1", policy="no-limit", copies=1)
_SPECS = (
    _BASE,
    replace(_BASE, inlet_delta_c=1.0),
    replace(_BASE, policy="ts"),
    replace(_BASE, policy="ts", inlet_delta_c=1.0),
)


def test_plan_gangs_returns_every_cell_solo_in_order():
    specs = [*_SPECS, Chapter5Spec(mix="W1", policy="bw", copies=1)]
    cells = [(spec_key(spec), spec) for spec in specs]
    plan = plan_gangs(cells, batch_cells=16)
    assert plan.gangs == ()
    assert plan.solo == tuple(cells)
