"""Campaign engine: stores, runner registry, sweeps, parallel execution."""

import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest

from repro.analysis.specs import (
    Chapter4Spec,
    Chapter5Spec,
    run_result_from_dict,
    run_result_to_dict,
    server_result_from_dict,
    server_result_to_dict,
    trace_from_dict,
)
from repro.campaign import (
    GLOBAL_MEMORY,
    Campaign,
    JsonDirStore,
    MemoryStore,
    NullStore,
    TieredStore,
    register_runner,
    registered_kinds,
    run,
    runner_for,
    spec_key,
    sweep,
)
from repro.campaign.spec import spec_meta
from repro.campaign.stores import make_record
from repro.core.results import RunResult, TemperatureTrace
from repro.errors import CheckpointError, ConfigurationError
from repro.testbed.runner import ServerRunResult

GOLDENS = Path(__file__).parent / "goldens"

# ---------------------------------------------------------------------------
# A tiny synthetic runner so engine tests don't pay for real simulations.
# ---------------------------------------------------------------------------

_CALLS = {"square": 0}


@dataclass(frozen=True)
class SquareSpec:
    kind: ClassVar[str] = "test-square"

    value: int = 2

    def key(self) -> str:
        return spec_key(self)


class _SquareEngine:
    """The smallest engine ``run_cell`` runs whole: one window, no state."""

    windows = 1

    def __init__(self, spec: SquareSpec, extra_observers: tuple = ()) -> None:
        self.spec = spec

    def run_to_completion(self) -> dict:
        _CALLS["square"] += 1
        return {"value": self.spec.value, "square": self.spec.value**2}


register_runner("test-square", _SquareEngine, encode=dict, decode=dict)


def _sample_trace() -> TemperatureTrace:
    trace = TemperatureTrace()
    trace.append(0.0, 100.0, 75.0, 45.0)
    trace.append(1.0, 101.5, 75.5, 45.2)
    trace.append(2.0, 103.25, 76.0, 45.4)
    return trace


def _sample_run_result() -> RunResult:
    return RunResult(
        workload="W1", policy="DTM-TS", cooling="AOHS_1.5",
        runtime_s=123.5, traffic_bytes=1.5e12, l2_misses=2e9,
        instructions=5e11, cpu_energy_j=3.2e4, memory_energy_j=2.1e4,
        mean_ambient_c=45.0, peak_amb_c=109.9, peak_dram_c=79.5,
        shutdown_fraction=0.25, finished_jobs=8, trace=_sample_trace(),
    )


def _sample_server_result() -> ServerRunResult:
    return ServerRunResult(
        platform="PE1950", workload="W1", policy="DTM-BW",
        runtime_s=356.0, traffic_bytes=1.2e12, l2_misses=1.5e10,
        instructions=4e11, cpu_energy_j=3.2e4, memory_energy_j=1.4e4,
        mean_inlet_c=36.8, peak_amb_c=79.4, finished_jobs=8,
        trace=_sample_trace(),
    )


# ---------------------------------------------------------------------------
# Runner registry + sweeps
# ---------------------------------------------------------------------------


def test_registry_round_trip():
    runner = runner_for("test-square")
    assert runner.kind == "test-square"
    assert {"ch4", "ch5", "test-square"} <= set(registered_kinds())
    with pytest.raises(ConfigurationError):
        runner_for("no-such-kind")


def test_spec_key_distinguishes_kinds():
    assert SquareSpec(2).key() != SquareSpec(3).key()
    assert SquareSpec(2).key() == SquareSpec(2).key()
    assert SquareSpec(2).key().startswith("test-square-")


def test_sweep_expands_row_major():
    specs = sweep(SquareSpec, {"value": (3, 1, 2)})
    assert [s.value for s in specs] == [3, 1, 2]
    ch4 = sweep(
        Chapter4Spec,
        {"mix": ("W1", "W2"), "policy": ("ts", "acg")},
        cooling="FDHS_1.0",
    )
    assert [(s.mix, s.policy) for s in ch4] == [
        ("W1", "ts"), ("W1", "acg"), ("W2", "ts"), ("W2", "acg")
    ]
    assert all(s.cooling == "FDHS_1.0" for s in ch4)


def test_sweep_rejects_bad_grids():
    with pytest.raises(ConfigurationError):
        sweep(SquareSpec, {})
    with pytest.raises(ConfigurationError):
        sweep(SquareSpec, {"value": (1, 2)}, value=3)


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


def test_memory_store_round_trip():
    store = MemoryStore()
    assert store.get("k") is None
    store.put("k", {"a": 1})
    assert store.get("k") == {"a": 1}
    assert "k" in store and "other" not in store
    store.clear()
    assert store.get("k") is None


def test_null_store_drops_everything():
    store = NullStore()
    store.put("k", {"a": 1})
    assert store.get("k") is None


def test_json_dir_store_round_trip(tmp_path):
    store = JsonDirStore(tmp_path)
    key = "test-square-abc123"
    assert store.get(key) is None
    store.put(key, {"value": 2, "square": 4})
    assert store.get(key) == {"value": 2, "square": 4}
    # Sharded layout, and no temp files left behind.
    assert (tmp_path / key[-2:] / f"{key}.json").exists()
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_json_dir_store_ignores_flat_layout(tmp_path):
    # A seed-era flat <root>/<key>.json file is never served, even when
    # it holds a well-formed record.
    key = "ch4-0123456789abcdef0123"
    record = make_record({"legacy": True}, key=key)
    (tmp_path / f"{key}.json").write_text(json.dumps(record))
    store = JsonDirStore(tmp_path)
    assert store.get(key) is None
    assert store.stats()["entries"] == 0


def test_json_dir_store_write_is_atomic(tmp_path, monkeypatch):
    """A failed write never tears the previously published payload."""
    store = JsonDirStore(tmp_path)
    key = "test-square-atomic01"
    store.put(key, {"generation": 1})
    torn = []
    real_write = os.write

    def torn_write(fd, data):
        """A write that stops halfway: the disk fills."""
        real_write(fd, bytes(data[: len(data) // 2]))
        torn.append(bytes(data))
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", torn_write)
    store.put(key, {"generation": 2})
    monkeypatch.undo()
    assert torn and b'"generation": 2' in torn[0]
    # The reader still sees the intact old payload, and the torn temp
    # file was cleaned up rather than published over it.
    assert store.get(key) == {"generation": 1}
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_json_dir_store_writes_a_record_as_its_json_dumps_text(tmp_path):
    """The file ``put`` writes for a ch5 payload is ``json.dumps`` of
    the record byte for byte, the same text ``json.dump`` streams, so a
    record reads the same whichever encoder wrote it."""
    payload = json.loads((GOLDENS / "ch5_PE1950_W1_acg_copies1.json").read_text())
    spec = Chapter5Spec(platform="PE1950", mix="W1", policy="acg", copies=1)
    key, meta = spec_key(spec), spec_meta(spec)
    store = JsonDirStore(tmp_path)
    store.put(key, payload, meta)
    expected = json.dumps(make_record(payload, meta, key=key))
    streamed = io.StringIO()
    json.dump(make_record(payload, meta, key=key), streamed)
    assert streamed.getvalue() == expected
    assert (tmp_path / key[-2:] / f"{key}.json").read_bytes() == expected.encode()
    assert store.get(key) == payload


def test_json_dir_store_ignores_corrupt_files(tmp_path):
    store = JsonDirStore(tmp_path)
    key = "test-square-corrupt1"
    path = tmp_path / key[-2:] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text('{"half": ')
    assert store.get(key) is None


def test_json_dir_store_stats(tmp_path):
    store = JsonDirStore(tmp_path)
    assert store.stats() == {
        "root": str(tmp_path), "entries": 0, "bytes": 0, "shards": 0,
        "versions": {}, "tmp_files": 0,
    }
    for index in range(5):
        store.put(f"test-square-stats{index:015d}", {"index": index})
    stats = store.stats()
    assert stats["entries"] == 5
    assert stats["bytes"] > 0
    assert 1 <= stats["shards"] <= 5


def test_json_dir_store_prune_evicts_oldest_first(tmp_path):
    store = JsonDirStore(tmp_path)
    keys = [f"test-square-prune{index:015d}" for index in range(5)]
    now = time.time()
    for age, key in enumerate(keys):
        store.put(key, {"key": key})
        # Deterministic mtimes: keys[0] oldest ... keys[4] newest.
        stamp = now - (len(keys) - age) * 100
        os.utime(store._path(key), (stamp, stamp))
    assert store.prune(3) == 2
    assert store.get(keys[0]) is None and store.get(keys[1]) is None
    for key in keys[2:]:
        assert store.get(key) == {"key": key}
    assert store.stats()["entries"] == 3
    assert store.prune(3) == 0  # already within budget
    assert store.prune(0) == 3  # evict everything
    assert store.stats()["entries"] == 0
    with pytest.raises(ConfigurationError, match="max_entries"):
        store.prune(-1)
    with pytest.raises(ConfigurationError, match="tmp_grace_s"):
        store.prune(tmp_grace_s=-5)


def _hammer_store(root: str, writer: int, keys: list[str]) -> int:
    """Multi-process store worker: write/read loop, count torn reads."""
    store = JsonDirStore(root)
    torn = 0
    for round_index in range(25):
        for key in keys:
            store.put(
                key,
                {"writer": writer, "round": round_index, "blob": "x" * 512},
            )
            payload = store.get(key)
            if payload is None:
                # A concurrent os.replace never unlinks the target, so
                # a published key must always read back whole.
                torn += 1
            elif (
                set(payload) != {"writer", "round", "blob"}
                or len(payload["blob"]) != 512
            ):
                torn += 1
    return torn


def test_json_dir_store_concurrent_writers_never_tear_or_lose(tmp_path):
    """Four processes hammering four shared keys: atomic-replace means
    every read sees a complete payload and every key survives."""
    keys = [f"test-square-conc{index:016d}" for index in range(4)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(_hammer_store, str(tmp_path), writer, keys)
            for writer in range(4)
        ]
        torn = sum(future.result() for future in futures)
    assert torn == 0
    store = JsonDirStore(tmp_path)
    for key in keys:
        payload = store.get(key)
        assert payload is not None and len(payload["blob"]) == 512
    assert store.stats()["entries"] == len(keys)
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_tiered_store_backfills_front_layers(tmp_path):
    front = MemoryStore()
    back = JsonDirStore(tmp_path)
    store = TieredStore([front, back])
    back.put("k", {"a": 1})
    assert front.get("k") is None
    assert store.get("k") == {"a": 1}
    assert front.get("k") == {"a": 1}  # backfilled
    store.put("j", {"b": 2})
    assert front.get("j") == {"b": 2} and back.get("j") == {"b": 2}


# ---------------------------------------------------------------------------
# Result codecs through the disk store (satellite: cache round-trip)
# ---------------------------------------------------------------------------


def test_run_result_disk_round_trip(tmp_path):
    store = JsonDirStore(tmp_path)
    original = _sample_run_result()
    store.put("ch4-roundtrip0000000001", run_result_to_dict(original))
    restored = run_result_from_dict(store.get("ch4-roundtrip0000000001"))
    assert restored == original
    assert restored.trace.times_s == original.trace.times_s
    assert restored.trace.amb_c == original.trace.amb_c


def test_server_result_disk_round_trip(tmp_path):
    store = JsonDirStore(tmp_path)
    original = _sample_server_result()
    store.put("ch5-roundtrip0000000001", server_result_to_dict(original))
    restored = server_result_from_dict(store.get("ch5-roundtrip0000000001"))
    assert restored == original
    assert restored.trace.dram_c == original.trace.dram_c


@pytest.mark.parametrize("damage", ["short-column", "non-number"])
def test_torn_trace_payload_is_a_miss_and_recomputes(tmp_path, damage):
    """A cached ch4 payload with a torn or corrupted trace column is
    refused by the trace codec, so the cell recomputes and the record
    is rewritten, instead of serving the damaged trace."""
    from repro.campaign import run_cell
    from repro.campaign.engine import _DECODE_MEMO

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1, record_trace=True)
    store = JsonDirStore(tmp_path)
    fresh = run_cell(spec, store)
    path = tmp_path / spec.key()[-2:] / f"{spec.key()}.json"
    record = json.loads(path.read_text())
    trace = record["payload"]["trace"]
    if damage == "short-column":
        trace["amb_c"] = trace["amb_c"][:3]
        match = "trace columns must have equal lengths"
    else:
        trace["dram_c"][0] = "hot"
        match = r"trace\.dram_c\.0 must be a number"
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError, match=match):
        trace_from_dict(trace)

    _DECODE_MEMO.pop(spec.key(), None)  # as in a fresh process
    again = run_cell(spec, store)
    assert not again.hit
    assert len(again.result.trace) == len(fresh.result.trace) > 3
    assert json.loads(path.read_text())["payload"] == fresh.payload


# ---------------------------------------------------------------------------
# Engine: caching, dedup, parallel vs serial
# ---------------------------------------------------------------------------


def test_run_short_circuits_on_cache_hit(tmp_path):
    store = TieredStore([MemoryStore(), JsonDirStore(tmp_path)])
    _CALLS["square"] = 0
    first = run(SquareSpec(7), store)
    second = run(SquareSpec(7), store)
    assert first == second == {"value": 7, "square": 49}
    assert _CALLS["square"] == 1  # runner not invoked twice for one key
    # A fresh memory layer over the same disk store still hits disk.
    cold = TieredStore([MemoryStore(), JsonDirStore(tmp_path)])
    assert run(SquareSpec(7), cold) == first
    assert _CALLS["square"] == 1


def test_run_recomputes_with_null_store():
    _CALLS["square"] = 0
    run(SquareSpec(5), NullStore())
    run(SquareSpec(5), NullStore())
    assert _CALLS["square"] == 2


def test_campaign_deduplicates_specs():
    _CALLS["square"] = 0
    campaign = Campaign(
        [SquareSpec(3), SquareSpec(4), SquareSpec(3)], store=MemoryStore()
    )
    results = campaign.run()
    assert [r["square"] for r in results] == [9, 16, 9]
    assert _CALLS["square"] == 2


def test_campaign_parallel_matches_serial():
    specs = sweep(SquareSpec, {"value": (1, 2, 3, 4, 5)})
    serial = Campaign(specs, jobs=1, store=MemoryStore()).run()
    parallel = Campaign(specs, jobs=3, store=MemoryStore()).run()
    assert serial == parallel
    assert [r["square"] for r in serial] == [1, 4, 9, 16, 25]


def test_campaign_workers_honor_explicit_store(tmp_path, monkeypatch):
    """Pool workers must not consult the default cache stack when the
    campaign was given its own store."""
    poison = {"value": 21, "square": -1}
    key = SquareSpec(21).key()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
    JsonDirStore(tmp_path / "default").put(key, poison)
    GLOBAL_MEMORY.put(key, poison)
    try:
        own = JsonDirStore(tmp_path / "own")
        specs = sweep(SquareSpec, {"value": (21, 22)})
        results = Campaign(specs, jobs=2, store=own).run()
        # A worker that consulted the default stack would return the
        # poisoned payload instead of recomputing.
        assert [r["square"] for r in results] == [441, 484]
        assert own.get(key) == {"value": 21, "square": 441}
    finally:
        GLOBAL_MEMORY._data.pop(key, None)


def test_campaign_parallel_real_runs_match_serial(tmp_path, monkeypatch):
    """Chapter 4 runs give identical results under jobs=1 and jobs=2."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
    specs = sweep(
        Chapter4Spec, {"policy": ("no-limit", "ts")}, mix="W1", copies=1
    )
    parallel = Campaign(specs, jobs=2, store=NullStore()).run()
    serial = Campaign(specs, jobs=1, store=NullStore()).run()
    assert serial == parallel
    assert serial[0].policy == "No-limit" or serial[0].runtime_s > 0


def test_campaign_rejects_bad_jobs():
    with pytest.raises(ConfigurationError):
        Campaign([SquareSpec(1)], jobs=0)


def test_campaign_worker_results_populate_parent_store():
    store = MemoryStore()
    specs = sweep(SquareSpec, {"value": (11, 12)})
    Campaign(specs, jobs=2, store=store).run()
    assert store.get(SquareSpec(11).key()) == {"value": 11, "square": 121}


def test_global_memory_is_default_front(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    _CALLS["square"] = 0
    GLOBAL_MEMORY._data.pop(SquareSpec(9).key(), None)
    run(SquareSpec(9))
    run(SquareSpec(9))
    assert _CALLS["square"] == 1
    assert GLOBAL_MEMORY.get(SquareSpec(9).key()) is not None
