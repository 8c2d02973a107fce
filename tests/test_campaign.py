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
)
from repro.campaign import (
    Campaign,
    JsonDirStore,
    MemoryStore,
    NullStore,
    default_cache,
    engine_for_spec,
    register_runner,
    run,
    run_cell,
    runner_for,
    spec_key,
    sweep,
)
from repro.campaign.spec import spec_meta
from repro.campaign.stores import make_record
from repro.core.results import RunResult, TemperatureTrace
from repro.engine.codec import state_dict
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

    def __init__(self, spec: SquareSpec) -> None:
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
    assert runner_for("ch4").kind == "ch4"
    assert runner_for("ch5").kind == "ch5"
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


def _count_disk_reads(monkeypatch) -> list[str]:
    """Record the key of every ``JsonDirStore.get`` from here on."""
    reads: list[str] = []
    real_get = JsonDirStore.get

    def counting_get(self, key):
        reads.append(key)
        return real_get(self, key)

    monkeypatch.setattr(JsonDirStore, "get", counting_get)
    return reads


def test_disk_hit_fills_the_memo(tmp_path, monkeypatch):
    """A default-cache hit on disk is decoded once into the memo; the
    next lookup of the key reads the memo, not the disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    key = SquareSpec(31).key()
    JsonDirStore(tmp_path).put(key, {"value": 31, "square": 961})
    reads = _count_disk_reads(monkeypatch)
    _CALLS["square"] = 0
    first = run_cell(SquareSpec(31), None)
    assert first.hit and first.result == {"value": 31, "square": 961}
    assert default_cache().memo[key] == (first.payload, first.result)
    assert run_cell(SquareSpec(31), None).result is first.result
    assert reads == [key] and _CALLS["square"] == 0


# ---------------------------------------------------------------------------
# Result codecs through the disk store (satellite: cache round-trip)
# ---------------------------------------------------------------------------


def test_run_result_disk_round_trip(tmp_path):
    store = JsonDirStore(tmp_path)
    original = _sample_run_result()
    store.put("ch4-roundtrip0000000001", state_dict(original))
    restored = runner_for("ch4").decode(store.get("ch4-roundtrip0000000001"))
    assert restored == original
    assert restored.trace.times_s == original.trace.times_s
    assert restored.trace.amb_c == original.trace.amb_c


def test_server_result_disk_round_trip(tmp_path):
    store = JsonDirStore(tmp_path)
    original = _sample_server_result()
    store.put("ch5-roundtrip0000000001", state_dict(original))
    restored = runner_for("ch5").decode(store.get("ch5-roundtrip0000000001"))
    assert restored == original
    assert restored.trace.dram_c == original.trace.dram_c


@pytest.mark.parametrize("spec", [
    Chapter4Spec(mix="W1", policy="acg", copies=1),
    Chapter5Spec(mix="W1", policy="bw", copies=1),
], ids=["ch4", "ch5"])
@pytest.mark.parametrize("damage", ["mistyped", "non-finite", "missing"])
def test_a_damaged_result_field_is_a_miss_and_recomputes(tmp_path, spec, damage):
    """A cached payload whose scalar field is mistyped, non-finite or
    missing is refused by the result's declared fields, so the cell
    recomputes and the record is rewritten, instead of a hit that fails
    later where the value is used."""
    store = JsonDirStore(tmp_path)
    fresh = run_cell(spec, store)
    path = tmp_path / spec.key()[-2:] / f"{spec.key()}.json"
    record = json.loads(path.read_text())
    if damage == "mistyped":
        record["payload"]["runtime_s"] = "soon"
    elif damage == "non-finite":
        record["payload"]["runtime_s"] = float("nan")
    else:
        del record["payload"]["runtime_s"]
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError, match="runtime_s"):
        runner_for(spec.kind).decode(record["payload"])

    again = run_cell(spec, store)
    assert not again.hit
    assert again.result == fresh.result
    assert json.loads(path.read_text())["payload"] == fresh.payload


@pytest.mark.parametrize("damage", ["short-column", "non-number"])
def test_torn_trace_payload_is_a_miss_and_recomputes(tmp_path, damage):
    """A cached ch4 payload with a torn or corrupted trace column is
    refused by the trace codec, so the cell recomputes and the record
    is rewritten, instead of serving the damaged trace."""
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
        runner_for("ch4").decode(record["payload"])

    again = run_cell(spec, store)
    assert not again.hit
    assert len(again.result.trace) == len(fresh.result.trace) > 3
    assert json.loads(path.read_text())["payload"] == fresh.payload


# ---------------------------------------------------------------------------
# Engine: caching, dedup, parallel vs serial
# ---------------------------------------------------------------------------


def test_run_short_circuits_on_cache_hit(tmp_path):
    store = JsonDirStore(tmp_path)
    _CALLS["square"] = 0
    first = run(SquareSpec(7), store)
    second = run(SquareSpec(7), store)
    assert first == second == {"value": 7, "square": 49}
    assert _CALLS["square"] == 1  # runner not invoked twice for one key
    # A second store over the same directory still hits disk.
    assert run(SquareSpec(7), JsonDirStore(tmp_path)) == first
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
    default_cache().memo[key] = (poison, poison)
    own = JsonDirStore(tmp_path / "own")
    specs = sweep(SquareSpec, {"value": (21, 22)})
    results = Campaign(specs, jobs=2, store=own).run()
    # A campaign or worker that consulted the default cache would
    # return the poisoned payload instead of recomputing.
    assert [r["square"] for r in results] == [441, 484]
    assert own.get(key) == {"value": 21, "square": 441}


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


def test_default_cache_memo_serves_repeat_runs(monkeypatch, tmp_path):
    """A fresh run fills the memo and the disk store; a repeat is a
    memo hit that reads neither the disk nor the runner."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    key = SquareSpec(9).key()
    _CALLS["square"] = 0
    first = run_cell(SquareSpec(9), None)
    reads = _count_disk_reads(monkeypatch)
    second = run_cell(SquareSpec(9), None)
    assert not first.hit and second.hit
    assert second.result is first.result
    assert _CALLS["square"] == 1 and reads == []
    assert default_cache().memo[key] == (first.payload, first.result)
    assert JsonDirStore(tmp_path).get(key) == {"value": 9, "square": 81}


def test_an_explicit_store_never_changes_a_default_cache_result(
    tmp_path, monkeypatch
):
    """A store that answers one W1/no-limit payload for every key
    serves it to its own caller only: a later default-cache ``run()``
    of the idle-burst spec still returns idle-burst's own result."""
    from dataclasses import replace

    from repro.scenarios import get_scenario

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    idle = replace(get_scenario("idle-burst").spec, copies=1)
    own = state_dict(engine_for_spec(idle).run_to_completion())
    JsonDirStore(tmp_path).put(idle.key(), own, meta=spec_meta(idle))
    no_limit = run_cell(
        Chapter4Spec(mix="W1", policy="no-limit", copies=1), NullStore()
    ).payload

    class OnePayloadStore(NullStore):
        def get(self, key):
            return no_limit

    foreign = run_cell(idle, OnePayloadStore())
    assert foreign.hit and foreign.payload == no_limit
    result = run(idle)
    assert result == runner_for("ch4").decode(own)
    assert result.runtime_s != foreign.result.runtime_s
