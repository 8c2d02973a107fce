"""Fleet integration: real worker subprocesses driven over HTTP.

These tests boot actual ``python -m repro worker`` processes through
:class:`LocalFleet` and exercise the acceptance criteria end to end:

- a grid run through :class:`HttpWorkerBackend` is byte-identical to
  the :class:`SerialBackend` run of the same grid, and the coordinator
  merges worker payloads into the shared store so a follow-up local
  run is all cache hits;
- killing a worker mid-grid loses no cells — the coordinator requeues
  onto the survivors and the grid completes with correct results;
- with time-sliced dispatch, a worker killed mid-cell resumes the cell
  from its last returned checkpoint (not from zero), and the results
  stay identical to a serial run.
"""

from __future__ import annotations

import json
import tempfile
import time

import pytest

from repro.analysis.specs import CHAPTER4_POLICIES, Chapter4Spec
from repro.api import ReproClient, ScenarioRequest, results_document
from repro.api.envelope import dumps_canonical
from repro.campaign import Campaign, MemoryStore
from repro.cli import main
from repro.cluster import HttpWorkerBackend, LocalFleet
from repro.errors import ClusterError

#: The acceptance grid: two library scenarios, one copy each.
SCENARIO_NAMES = ("hot-ambient", "cold-aisle")


def _scenario_request() -> ScenarioRequest:
    return ScenarioRequest(names=SCENARIO_NAMES, copies=1)


@pytest.fixture(scope="module")
def fleet():
    """Two real workers sharing a private (initially cold) disk cache."""
    with tempfile.TemporaryDirectory(prefix="repro-worker-cache-") as cache:
        with LocalFleet(2, env={"REPRO_CACHE_DIR": cache}) as running:
            yield running


def test_fleet_not_started_has_no_urls():
    with pytest.raises(ClusterError, match="not running"):
        LocalFleet(1).urls


def test_fleet_byte_identity_and_shared_store_warm_through(fleet):
    """The acceptance check: fleet == serial, and the store warms through."""
    serial_store = MemoryStore()
    serial_client = ReproClient(store=serial_store)
    serial_cold = list(serial_client.run_scenarios(_scenario_request()))

    fleet_store = MemoryStore()
    with HttpWorkerBackend(fleet.urls) as backend:
        fleet_client = ReproClient(store=fleet_store, backend=backend)
        fleet_cold = list(fleet_client.run_scenarios(_scenario_request()))
        fleet_warm = list(fleet_client.run_scenarios(_scenario_request()))

    # Distributed compute produced the same cells as local compute —
    # identical in everything but where/when the work happened.
    assert len(fleet_cold) == len(serial_cold) == len(SCENARIO_NAMES)
    for fleet_env, serial_env in zip(fleet_cold, serial_cold):
        fleet_doc, serial_doc = fleet_env.to_dict(), serial_env.to_dict()
        for doc in (fleet_doc, serial_doc):
            doc["provenance"].pop("compute_seconds")
            doc["provenance"].pop("cache")
        assert fleet_doc == serial_doc

    # Byte identity on warm envelopes, where provenance is fully
    # deterministic (cache=hit, compute_seconds=0.0): the fleet pass
    # and the serial pass serialize to the same canonical JSON.
    serial_warm = list(serial_client.run_scenarios(_scenario_request()))
    assert all(e.provenance.cache == "hit" for e in fleet_warm)
    assert dumps_canonical(results_document(fleet_warm)) == dumps_canonical(
        results_document(serial_warm)
    )

    # Warm-through: the coordinator merged worker payloads into its
    # store, so a purely local follow-up run over that store is all
    # cache hits — and byte-identical to the serial warm pass too.
    local = list(
        ReproClient(store=fleet_store).run_scenarios(_scenario_request())
    )
    assert all(
        e.provenance.cache == "hit" and e.provenance.compute_seconds == 0.0
        for e in local
    )
    assert dumps_canonical(results_document(local)) == dumps_canonical(
        results_document(serial_warm)
    )


def test_cli_campaign_http_backend(fleet, capsys):
    code = main([
        "campaign", "--grid", "ch4", "--mixes", "W2", "--policies", "ts,bw",
        "--copies", "1", "--backend", "http",
        "--workers", ",".join(fleet.urls), "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    policies = [r["metrics"]["policy"] for r in document["results"]]
    assert policies == ["DTM-TS", "DTM-BW"]


def test_cli_workers_without_http_backend_is_an_error(capsys):
    code = main([
        "campaign", "--grid", "ch4", "--mixes", "W1", "--policies", "ts",
        "--workers", "127.0.0.1:9001",
    ])
    assert code == 2
    assert "--backend http" in capsys.readouterr().err


def test_worker_killed_mid_cell_resumes_from_checkpoint(tmp_path):
    """Acceptance: with time-sliced dispatch, killing a worker mid-cell
    must resume the cell from its last checkpoint, not restart it."""
    specs = [
        Chapter4Spec(mix="W1", policy=policy, copies=2)
        for policy in ("ts", "acg")
    ]
    with LocalFleet(
        2, env={"REPRO_CACHE_DIR": str(tmp_path / "worker-cache")}
    ) as fleet:
        backend = HttpWorkerBackend(
            fleet.urls,
            window_slice=400,
            heartbeat_interval_s=0.5,
            health_timeout_s=1.0,
            blacklist_after=2,
        )
        with backend:
            import threading

            results: list = []

            def consume() -> None:
                campaign = Campaign(specs, store=MemoryStore(), backend=backend)
                for _, result, _, _ in campaign.iter_run():
                    results.append(result)

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            # Let both cells accumulate at least one checkpoint each
            # before taking a machine away.
            deadline = time.monotonic() + 60
            while (
                backend.dispatch_stats()["partial_slices"] < 4
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert backend.dispatch_stats()["partial_slices"] >= 4
            fleet.kill(1)  # SIGKILL mid-slice
            consumer.join(timeout=180)
            assert not consumer.is_alive(), "grid did not finish after the kill"
            stats = backend.dispatch_stats()
    # Every cell completed, each in several slices, and each finished
    # from a warm checkpoint — no cell restarted from window zero.
    assert len(results) == len(specs)
    assert len(stats["cells"]) == len(specs)
    for record in stats["cells"].values():
        assert record["slices"] > 1
        assert record["resumed_from"] > 0
        assert record["windows_done"] > record["resumed_from"]
    # And the time-sliced, interrupted, resumed grid is value-identical
    # to a purely local serial run.
    serial = Campaign(specs, store=MemoryStore()).run()
    assert results == serial


def test_worker_killed_mid_grid_requeues_onto_survivor(tmp_path):
    """Acceptance: killing one worker mid-grid must not lose cells."""
    specs = [
        Chapter4Spec(mix="W1", policy=policy, copies=1)
        for policy in CHAPTER4_POLICIES
    ]
    with LocalFleet(
        2, env={"REPRO_CACHE_DIR": str(tmp_path / "worker-cache")}
    ) as fleet:
        survivor_url = fleet.urls[0]
        backend = HttpWorkerBackend(
            fleet.urls,
            heartbeat_interval_s=0.5,
            health_timeout_s=1.0,
            blacklist_after=2,
        )
        with backend:
            iterator = Campaign(
                specs, store=MemoryStore(), backend=backend
            ).iter_run()
            results = [next(iterator)[1]]
            fleet.kill(1)  # SIGKILL one worker while the grid is in flight
            results.extend(result for _, result, _, _ in iterator)
            stats = {s["url"]: s for s in backend.fleet_stats()}
    # No cell was lost, and the survivor carried the fleet home.
    assert len(results) == len(CHAPTER4_POLICIES)
    assert sum(s["completed_cells"] for s in stats.values()) == len(specs)
    assert stats[survivor_url]["completed_cells"] >= len(specs) // 2
    # Every cell matches a purely local serial run of the same grid.
    serial = Campaign(specs, store=MemoryStore()).run()
    assert results == serial
