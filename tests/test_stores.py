"""The default result cache's single-flight, and the one disk layout.

The acceptance-critical properties live here:

- N concurrent identical cold cells through the default cache perform
  exactly 1 compute, and concurrent writers cause 0 torn reads
  (single-flight coalescing + atomic disk publishes).
- A ``JsonDirStore`` miss opens exactly one path; files outside the
  ``<hh>/<key>.json`` layout are never served.
- A bare payload file (no record wrapper) is never served.

``REPRO_STORE_STRESS`` scales the thread-hammer tests (default 1x) so
the CI store-stress leg can turn the same tests up without an edit.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest

from repro.campaign import (
    CACHE_VERSION,
    JsonDirStore,
    default_cache,
    register_runner,
    run_cell,
    spec_key,
)
from repro.campaign.stores import UNRECORDED, default_disk_store
from repro.campaign.stores import cache as cache_module

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


#: CubeSpec value -> a callable its engine runs before finishing, so a
#: test can hold, fail or re-enter one cell's compute.
_HOOKS: dict = {}


class _CubeEngine:
    """The smallest engine ``run_cell`` runs whole: one window, no state."""

    windows = 1

    def __init__(self, spec: CubeSpec) -> None:
        self.spec = spec

    def run_to_completion(self) -> dict:
        hook = _HOOKS.get(self.spec.value)
        if hook is not None:
            hook()
        return {"value": self.spec.value, "cube": self.spec.value**3}


register_runner("test-cube", _CubeEngine, encode=dict, decode=dict)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """The default cache over an empty ``tmp_path`` disk store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return default_cache()


# ---------------------------------------------------------------------------
# Tmp naming + concurrent same-key writers (satellite: thread-unsafe tmp)
# ---------------------------------------------------------------------------


def test_tmp_names_are_unique_across_threads(tmp_path, monkeypatch):
    """``publish_atomic`` names its own temp sibling: one per write,
    whichever thread writes, in the form the sweeps glob for."""
    store = JsonDirStore(tmp_path)
    target = store._path("test-cube-abc")
    names, lock = [], threading.Lock()
    replace = os.replace

    def recorded(src, dst) -> None:
        with lock:
            names.append(Path(src).name)
        replace(src, dst)

    monkeypatch.setattr("repro.engine.state.os.replace", recorded)

    def write() -> None:
        for _ in range(50):
            store.put("test-cube-abc", {"cube": 1})

    threads = [threading.Thread(target=write) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(names) == 400 and len(set(names)) == 400
    pid = os.getpid()
    assert all(
        name.startswith(f"{target.name}.tmp.{pid}.") for name in names
    )


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


def test_single_flight_n_cold_requests_one_compute(fresh_cache, monkeypatch):
    spec = CubeSpec(3)
    computes, lock = [], threading.Lock()
    gate = threading.Barrier(6 * STRESS)
    outcomes: list = []

    def hold() -> None:
        with lock:
            computes.append(threading.get_ident())
        time.sleep(0.05)  # hold the flight open so followers pile up

    monkeypatch.setitem(_HOOKS, spec.value, hold)

    def ask() -> None:
        gate.wait()
        outcome = run_cell(spec, None)
        with lock:
            outcomes.append(outcome)

    threads = [threading.Thread(target=ask) for _ in range(6 * STRESS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the flight-table races finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(t.is_alive() for t in threads)
    assert len(computes) == 1  # exactly one compute across the stampede
    assert len(outcomes) == 6 * STRESS
    assert all(o.payload == {"value": 3, "cube": 27} for o in outcomes)
    assert len([o for o in outcomes if not o.hit]) == 1
    assert all(
        o.store_info == {"single_flight": "coalesced"}
        for o in outcomes if o.hit
    )
    assert fresh_cache.flights == {}
    # The leader's publish reached the disk store for everyone after.
    assert fresh_cache.disk.get(spec.key()) == {"value": 3, "cube": 27}


def test_single_flight_leader_failure_followers_recover(fresh_cache, monkeypatch):
    spec = CubeSpec(4)
    computes, lock = [], threading.Lock()
    leading = threading.Event()
    started = threading.Barrier(4)
    failures: list[BaseException] = []
    served: list = []
    leader = threading.current_thread()  # replaced before any compute

    def compute() -> None:
        if threading.current_thread() is leader:
            leading.set()
            started.wait()
            time.sleep(0.05)  # let the followers park on the flight
            raise RuntimeError("leader dies empty-handed")
        with lock:
            computes.append(threading.get_ident())

    monkeypatch.setitem(_HOOKS, spec.value, compute)

    def lead() -> None:
        try:
            run_cell(spec, None)
        except RuntimeError as error:
            failures.append(error)

    def follow() -> None:
        started.wait()
        outcome = run_cell(spec, None)
        with lock:
            served.append(outcome)

    leader = threading.Thread(target=lead)
    leader.start()
    assert leading.wait(10)  # the leader thread holds the flight
    threads = [threading.Thread(target=follow) for _ in range(3)]
    for t in threads:
        t.start()
    for t in [leader, *threads]:
        t.join(timeout=30)

    assert not any(t.is_alive() for t in [leader, *threads])
    assert len(failures) == 1  # the leader's own error reached it
    assert len(served) == 3
    for outcome in served:
        assert outcome.payload == {"value": 4, "cube": 64}
        assert not outcome.hit  # recovered by computing, not by coalescing
    assert len(computes) == 3  # every follower recovered independently
    assert fresh_cache.flights == {}


def test_single_flight_owner_reenters_without_deadlock(fresh_cache, monkeypatch):
    spec = CubeSpec(6)
    nested: list = []
    depth = []

    def reenter() -> None:
        # A nested run of the cell this thread leads computes directly
        # instead of waiting on its own flight.
        if not depth:
            depth.append(1)
            nested.append(run_cell(spec, None))
            assert list(fresh_cache.flights) == [spec.key()]

    monkeypatch.setitem(_HOOKS, spec.value, reenter)
    outcome = run_cell(spec, None)
    assert nested[0].payload == {"value": 6, "cube": 216}
    assert not nested[0].hit
    assert outcome.payload == {"value": 6, "cube": 216} and not outcome.hit
    assert fresh_cache.flights == {}


def test_run_cell_reports_flight_provenance(fresh_cache):
    cold = run_cell(CubeSpec(5), None)
    assert not cold.hit and cold.payload["cube"] == 125
    assert cold.store_info == {}
    warm = run_cell(CubeSpec(5), None)
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
# Bare files: the pre-record format reads as a miss
# ---------------------------------------------------------------------------


def test_bare_entry_reads_as_a_miss_labelled_unrecorded(tmp_path):
    """A bare ``<hh>/<key>.json`` (the payload dict alone, as written
    before the record format) is never served, and the census labels
    it ``unrecorded``; the next ``put`` publishes a record over it."""
    store = JsonDirStore(tmp_path)
    key = "test-cube-00c2"
    path = store._path(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"cube": 8}))
    assert store.get(key) is None
    assert store.stats()["versions"] == {UNRECORDED: 1}
    store.put(key, {"cube": 8})
    assert store.get(key) == {"cube": 8}
    assert store.stats()["versions"] == {CACHE_VERSION: 1}


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


def test_default_cache_is_built_once_per_cache_env(tmp_path, monkeypatch):
    """One cache per (``REPRO_CACHE``, ``REPRO_CACHE_DIR``); a change of
    either builds a new one with an empty memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    cache = default_cache()
    assert default_cache() is cache
    assert isinstance(cache.disk, JsonDirStore) and cache.disk.root == tmp_path
    run_cell(CubeSpec(7), None)
    assert CubeSpec(7).key() in cache.memo
    monkeypatch.setenv("REPRO_CACHE", "0")
    memory_only = default_cache()
    assert memory_only is not cache
    assert memory_only.disk is None and memory_only.memo == {}
    assert default_cache() is memory_only


# ---------------------------------------------------------------------------
# Memo bound: oldest first, an evicted cell is read again
# ---------------------------------------------------------------------------


def _computes(monkeypatch) -> list[int]:
    """The values of the cube cells ``run_cell`` computes from now on."""
    computed = []
    run = _CubeEngine.run_to_completion

    def counting(engine):
        computed.append(engine.spec.value)
        return run(engine)

    monkeypatch.setattr(_CubeEngine, "run_to_completion", counting)
    return computed


@pytest.mark.parametrize("disk", [False, True], ids=["cache-off", "disk"])
def test_memo_evicts_its_oldest_cells_above_the_limit(
    disk, tmp_path, monkeypatch
):
    """Above ``MEMO_LIMIT`` the oldest cells leave the memo.  A later
    lookup of one is a disk hit with the disk on, a recompute under
    ``REPRO_CACHE=0``; either way it returns to the memo as the newest."""
    monkeypatch.setattr(cache_module, "MEMO_LIMIT", 2)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    if disk:
        monkeypatch.delenv("REPRO_CACHE", raising=False)
    else:
        monkeypatch.setenv("REPRO_CACHE", "0")
    cache = default_cache()
    computed = _computes(monkeypatch)
    for value in (31, 32, 33):
        assert not run_cell(CubeSpec(value), None).hit
    assert list(cache.memo) == [CubeSpec(32).key(), CubeSpec(33).key()]
    assert run_cell(CubeSpec(33), None).hit  # a memo hit
    again = run_cell(CubeSpec(31), None)
    assert again.hit is disk
    assert again.result == {"value": 31, "cube": 29791}
    assert computed == ([31, 32, 33] if disk else [31, 32, 33, 31])
    assert list(cache.memo) == [CubeSpec(33).key(), CubeSpec(31).key()]


def test_concurrent_memo_writes_keep_the_bound(monkeypatch):
    """Writers racing under a short switch interval never lose the
    bound or trip over each other's evictions."""
    monkeypatch.setattr(cache_module, "MEMO_LIMIT", 8)
    cache = cache_module.ResultCache(None)
    failures = []

    def write(worker: int) -> None:
        try:
            for index in range(500):
                cache.remember(f"{worker}-{index}", ({}, index))
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=write, args=(n,)) for n in range(8)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers)
    assert failures == [] and len(cache.memo) == 8
