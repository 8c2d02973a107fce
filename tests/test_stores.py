"""The store stack: single-flight dedup, the one disk layout, migrate.

The acceptance-critical properties live here:

- N concurrent identical cold requests perform exactly 1 compute and
  0 torn reads (single-flight coalescing + atomic disk publishes).
- A ``JsonDirStore`` miss opens exactly one path; files outside the
  ``<hh>/<key>.json`` layout are never served.
- ``migrate()`` turns a bare payload file into a record that serves a
  byte-identical warm envelope, and reports stale records untouched.

``REPRO_STORE_STRESS`` scales the thread-hammer tests (default 1x) so
the CI store-stress leg can turn the same tests up without an edit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from repro.api import ReproClient, SimulateRequest
from repro.campaign import (
    CACHE_VERSION,
    GLOBAL_MEMORY,
    JsonDirStore,
    MemoryStore,
    SingleFlightStore,
    TieredStore,
    migrate,
    register_runner,
    run_cell,
    spec_key,
    spec_meta,
)
from repro.campaign.stores import (
    RECORD_FORMAT,
    RECORD_VERSION,
    UNRECORDED,
    default_disk_store,
    flights_in_progress,
    make_record,
)

#: Thread-count multiplier for the hammer tests (CI stress leg sets 4).
STRESS = max(1, int(os.environ.get("REPRO_STORE_STRESS", "1")))


# ---------------------------------------------------------------------------
# A tiny synthetic runner so store tests don't pay for real simulations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeSpec:
    kind: ClassVar[str] = "test-cube"

    value: int = 2

    def key(self) -> str:
        return spec_key(self)


class _CubeEngine:
    """The smallest engine ``run_cell`` runs whole: one window, no state."""

    windows = 1

    def __init__(self, spec: CubeSpec, extra_observers: tuple = ()) -> None:
        self.spec = spec

    def run_to_completion(self) -> dict:
        return {"value": self.spec.value, "cube": self.spec.value**3}


register_runner("test-cube", _CubeEngine, encode=dict, decode=dict)


def _scope(request) -> str:
    # A per-test flight scope keeps these tests out of the "default"
    # scope shared by every default_store() stack in the process.
    return f"test:{request.node.name}"


# ---------------------------------------------------------------------------
# Tmp naming + concurrent same-key writers (satellite: thread-unsafe tmp)
# ---------------------------------------------------------------------------


def test_tmp_names_are_unique_across_threads(tmp_path):
    store = JsonDirStore(tmp_path)
    target = store._path("test-cube-abc")
    names, lock = [], threading.Lock()

    def grab() -> None:
        mine = [store._tmp_path(target).name for _ in range(50)]
        with lock:
            names.extend(mine)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(names) == len(set(names))
    pid = os.getpid()
    assert all(f".tmp.{pid}." in name for name in names)


def test_concurrent_thread_writers_same_key_no_torn_reads(tmp_path):
    store = JsonDirStore(tmp_path)
    key = CubeSpec(17).key()  # a real hex-suffixed key, as stats scans
    writers = 4 * STRESS
    rounds = 25
    stop = threading.Event()
    torn: list[object] = []

    def write(seed: int) -> None:
        for i in range(rounds):
            store.put(key, {"seed": seed, "round": i, "fill": "x" * 256})

    def read() -> None:
        while not stop.is_set():
            payload = store.get(key)
            if payload is None:
                continue
            if set(payload) != {"seed", "round", "fill"}:
                torn.append(payload)

    readers = [threading.Thread(target=read) for _ in range(2)]
    for t in readers:
        t.start()
    threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    for t in readers:
        t.join()

    assert torn == []
    # Exactly one survivor, intact, from some writer's final round.
    final = store.get(key)
    assert final is not None and final["round"] == rounds - 1
    assert store.stats()["entries"] == 1
    # No tmp debris left behind by the losing writers.
    assert store.stats()["tmp_files"] == 0


# ---------------------------------------------------------------------------
# Single-flight coalescing (acceptance: N cold requests -> 1 compute)
# ---------------------------------------------------------------------------


def test_single_flight_n_cold_requests_one_compute(tmp_path, request):
    store = SingleFlightStore(JsonDirStore(tmp_path), scope=_scope(request))
    key = CubeSpec(3).key()
    computes, lock = [], threading.Lock()
    gate = threading.Barrier(6 * STRESS)
    results: list[tuple[dict, bool, dict]] = []

    def compute() -> tuple[dict, dict]:
        with lock:
            computes.append(threading.get_ident())
        time.sleep(0.05)  # hold the flight open so followers pile up
        return {"cube": 27}, {"compute_seconds": 0.05}

    def ask() -> None:
        gate.wait()
        outcome = store.get_or_compute(key, compute)
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=ask) for _ in range(6 * STRESS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(computes) == 1  # exactly one compute across the stampede
    assert all(payload == {"cube": 27} for payload, _, _ in results)
    misses = [info for _, hit, info in results if not hit]
    hits = [info for _, hit, info in results if hit]
    assert len(misses) == 1
    assert all(info.get("single_flight") == "coalesced" for info in hits)
    assert flights_in_progress(_scope(request)) == 0
    # The leader's publish reached the disk layer for everyone after.
    assert store.get(key) == {"cube": 27}


def test_single_flight_leader_failure_followers_recover(request):
    store = SingleFlightStore(MemoryStore(), scope=_scope(request))
    key = "test-cube-doomed"
    computes, lock = [], threading.Lock()
    leading = threading.Event()
    started = threading.Barrier(4)
    failures: list[BaseException] = []
    served: list[tuple[dict, bool]] = []

    def doomed() -> tuple[dict, dict]:
        leading.set()
        started.wait()
        time.sleep(0.05)  # let the followers park on the flight
        raise RuntimeError("leader dies empty-handed")

    def lead() -> None:
        try:
            store.get_or_compute(key, doomed)
        except RuntimeError as error:
            failures.append(error)

    def compute() -> tuple[dict, dict]:
        with lock:
            computes.append(threading.get_ident())
        return {"ok": True}, {}

    def follow() -> None:
        started.wait()
        payload, hit, _ = store.get_or_compute(key, compute)
        with lock:
            served.append((payload, hit))

    leader = threading.Thread(target=lead)
    leader.start()
    assert leading.wait(10)  # the leader thread holds the flight
    threads = [threading.Thread(target=follow) for _ in range(3)]
    for t in threads:
        t.start()
    for t in [leader, *threads]:
        t.join()

    assert len(failures) == 1  # the leader's own error reached it
    assert len(served) == 3
    for payload, hit in served:
        assert payload == {"ok": True}
        assert not hit  # recovered by computing, not by coalescing
    assert len(computes) == 3  # every follower recovered independently
    assert flights_in_progress(_scope(request)) == 0


def test_single_flight_owner_reenters_without_deadlock(request):
    store = SingleFlightStore(MemoryStore(), scope=_scope(request))
    key = "test-cube-nested"
    nested: list = []

    def compute() -> tuple[dict, dict]:
        # A nested get_or_compute under our own flight computes directly
        # instead of waiting on ourselves.
        nested.append(store.get_or_compute(key, lambda: ({"n": 1}, {})))
        assert flights_in_progress(_scope(request)) == 1
        return nested[0][0], {}

    payload, hit, _ = store.get_or_compute(key, compute)
    assert nested[0][0] == {"n": 1} and not nested[0][1]
    assert payload == {"n": 1} and not hit
    assert flights_in_progress(_scope(request)) == 0


def test_run_cell_reports_flight_provenance(tmp_path, request):
    store = SingleFlightStore(JsonDirStore(tmp_path), scope=_scope(request))
    cold = run_cell(CubeSpec(5), store)
    assert not cold.hit and cold.payload["cube"] == 125
    warm = run_cell(CubeSpec(5), store)
    assert warm.hit and warm.store_info == {}


# ---------------------------------------------------------------------------
# One layout: a miss opens one path, nothing outside <hh>/ is served
# ---------------------------------------------------------------------------


def test_get_miss_opens_exactly_one_path(tmp_path, monkeypatch):
    store = JsonDirStore(tmp_path)
    key = "test-cube-00ab"
    # A seed-era flat file and an unusable <hh>/ file must not make the
    # miss path look anywhere else.
    (tmp_path / f"{key}.json").write_text(json.dumps({"cube": 8}))
    other = "test-cube-01ab"
    store._path(other).parent.mkdir(parents=True)
    store._path(other).write_text(json.dumps(["not", "a", "record"]))
    opened: list[Path] = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    assert store.get(key) is None
    assert opened == [store._path(key)]
    opened.clear()
    assert store.get(other) is None
    assert opened == [store._path(other)]


def test_stats_ignores_flat_layout_files(tmp_path):
    store = JsonDirStore(tmp_path)
    key = "test-cube-00aa"
    store.put(key, {"cube": 1})
    # Seed-era flat files, one shadowing a live key, one on its own.
    (tmp_path / f"{key}.json").write_text(json.dumps({"cube": 1}))
    (tmp_path / "test-cube-00bb.json").write_text(json.dumps({"cube": 2}))
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["versions"] == {CACHE_VERSION: 1}
    assert [k for k, _ in store.iter_records()] == [key]


def test_prune_sweeps_stale_tmp_files_only(tmp_path):
    store = JsonDirStore(tmp_path)
    store.put("test-cube-0bb0", {"cube": 1})
    shard_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    old_a = shard_dir / "a.json.tmp.1.2.3"
    old_a.write_text("{")
    old_b = shard_dir / "b.json.tmp.4.5.6"
    old_b.write_text("{")
    young = shard_dir / "c.json.tmp.7.8.9"
    young.write_text("{")
    stale = time.time() - 7200
    os.utime(old_a, (stale, stale))
    os.utime(old_b, (stale, stale))

    assert store.stats()["tmp_files"] == 3
    assert store.prune() == 2  # default grace spares the young writer
    after = store.stats()
    assert after["tmp_files"] == 1 and after["entries"] == 1
    assert store.prune(tmp_grace_s=0.0) == 1  # zero grace sweeps it too
    assert store.stats()["tmp_files"] == 0
    assert store.get("test-cube-0bb0") == {"cube": 1}


# ---------------------------------------------------------------------------
# cache migrate: wrap bare files in place, report stale records
# ---------------------------------------------------------------------------


def test_migrate_wraps_bare_entry_into_byte_identical_hit(tmp_path):
    request = SimulateRequest(mix="W1", policy="ts", copies=1)
    key = request.spec().key()
    store = JsonDirStore(tmp_path)
    client = ReproClient(store)
    client.simulate(request)  # cold compute
    warm_before = client.simulate(request).to_json()
    payload = store.get(key)

    # Rewrite the entry as the bare <hh>/<key>.json file an older
    # writer left: the payload dict alone.  It reads as a miss.
    path = store._path(key)
    path.write_text(json.dumps(payload))
    assert store.get(key) is None
    assert store.stats()["versions"] == {UNRECORDED: 1}

    plan = migrate(store, dry_run=True)
    assert (plan.scanned, plan.wrapped) == (1, 1)
    assert plan.by_version == {UNRECORDED: 1}
    assert store.get(key) is None  # dry run wrote nothing

    report = migrate(store)
    assert report.to_dict() == {
        "target": CACHE_VERSION, "dry_run": False, "scanned": 1,
        "wrapped": 1, "current": 0, "unrecorded": 0, "stale": 0,
        "by_version": {UNRECORDED: 1},
    }
    record = json.loads(path.read_text())
    assert record == {
        "format": RECORD_FORMAT, "record": RECORD_VERSION,
        "cache_version": UNRECORDED, "kind": "ch4", "spec": None,
        "payload": payload,
    }
    assert json.dumps(store.get(key)) == json.dumps(payload)
    assert store.stats()["versions"] == {UNRECORDED: 1}

    # The warm envelope served from the wrapped record is byte-identical
    # to the one served before the rewrite.
    GLOBAL_MEMORY.clear()
    warm_after = ReproClient(store).simulate(request)
    assert warm_after.provenance.cache == "hit"
    assert warm_after.to_json() == warm_before

    # A second pass is a no-op.
    wrapped_bytes = path.read_bytes()
    again = migrate(store)
    assert (again.wrapped, again.unrecorded) == (0, 1)
    assert path.read_bytes() == wrapped_bytes


def test_migrate_reports_stale_records_untouched(tmp_path):
    store = JsonDirStore(tmp_path)
    spec = CubeSpec(4)
    store.put(spec.key(), {"cube": 64}, meta=spec_meta(spec))
    stale_key = "test-cube-0a1"
    store.write_document(stale_key, make_record(
        {"cube": 1}, {"cache_version": "v1", "spec": {"value": 1}},
        key=stale_key,
    ))
    stale_bytes = store._path(stale_key).read_bytes()
    store.write_document("test-cube-0b2", {"cube": 8})  # bare

    report = migrate(store)
    assert (report.scanned, report.current, report.stale, report.wrapped) == (
        3, 1, 1, 1,
    )
    assert report.by_version == {
        CACHE_VERSION: 1, "v1": 1, UNRECORDED: 1,
    }
    # The stale record is reported, not rewritten or removed.
    assert store._path(stale_key).read_bytes() == stale_bytes
    assert store.get(spec.key()) == {"cube": 64}
    assert store.get("test-cube-0b2") == {"cube": 8}


# ---------------------------------------------------------------------------
# Environment wiring
# ---------------------------------------------------------------------------


def test_default_disk_store_follows_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    store = default_disk_store()
    assert isinstance(store, JsonDirStore) and store.root == tmp_path
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert default_disk_store() is None


def test_single_flight_wraps_default_stack(tmp_path, monkeypatch):
    from repro.campaign.stores import default_store

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    stack = default_store()
    assert isinstance(stack, SingleFlightStore)
    assert isinstance(stack.inner, TieredStore)
    monkeypatch.setenv("REPRO_CACHE", "0")
    memory_only = default_store()
    assert isinstance(memory_only, SingleFlightStore)
    assert isinstance(memory_only.inner, MemoryStore)
