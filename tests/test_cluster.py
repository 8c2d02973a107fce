"""repro.cluster: the serial and local-process execution backends."""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.campaign import (
    Campaign,
    JsonDirStore,
    MemoryStore,
    default_cache,
    register_runner,
    spec_key,
    sweep,
)
from repro.cluster import LocalProcessBackend, SerialBackend
from repro.engine.gang import plan_gangs
from repro.errors import ConfigurationError

# ---------------------------------------------------------------------------
# Synthetic specs (cheap cells for engine/backend mechanics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSquareSpec:
    kind: ClassVar[str] = "cluster-square"

    value: int = 2

    def key(self) -> str:
        return spec_key(self)


class _SquareEngine:
    """The smallest engine ``run_cell`` runs whole: one window, no state."""

    windows = 1

    def __init__(self, spec) -> None:
        self.spec = spec

    def run_to_completion(self) -> dict:
        return {"value": self.spec.value, "square": self.spec.value**2}


register_runner("cluster-square", _SquareEngine, encode=dict, decode=dict)


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
        list(backend.run_cells([ClusterSquareSpec(45)], MemoryStore()))


def test_process_backend_streams_in_spec_order():
    specs = sweep(ClusterSquareSpec, {"value": (11, 12, 13, 11)})
    with LocalProcessBackend(jobs=2) as backend:
        campaign = Campaign(specs, store=MemoryStore(), backend=backend)
        rows = [
            (spec.value, outcome.result["square"], outcome.hit)
            for spec, outcome in campaign.iter_outcomes()
        ]
    # Spec order, and the duplicate cell is a hit on its repeat.
    assert rows == [
        (11, 121, False), (12, 144, False), (13, 169, False), (11, 121, True),
    ]


def test_abandoned_iterator_leaves_no_stray_processes():
    """Abandoning a parallel iterator must shut its owned pool down."""
    before = set(multiprocessing.active_children())
    specs = sweep(ClusterSquareSpec, {"value": tuple(range(60, 68))})
    iterator = Campaign(specs, jobs=2, store=MemoryStore()).iter_outcomes()
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
        ).iter_outcomes()
        next(iterator)
        iterator.close()
        # The borrowed backend is still open: a fresh campaign works.
        results = Campaign(
            sweep(ClusterSquareSpec, {"value": (74, 75)}),
            store=MemoryStore(), backend=backend,
        ).run()
        assert [r["square"] for r in results] == [5476, 5625]


def _inline_pool(backend: LocalProcessBackend, monkeypatch) -> list:
    """Give ``backend`` a pool that runs each submitted cell at once, in
    this process, against a private store — as a pool worker does with
    its pickled store copy; returns the keys of the cells submitted."""
    submitted = []

    class Pool:
        def submit(self, work, spec, store, *trace):
            submitted.append(spec.key())
            future = Future()
            future.set_result(work(spec, MemoryStore(), *trace))
            return future

    monkeypatch.setattr(backend, "_ensure_pool", Pool)
    return submitted


def test_pool_payloads_fill_the_explicit_store_or_the_memo(
    tmp_path, monkeypatch
):
    # Explicit store: payloads computed elsewhere land in it.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    backend = LocalProcessBackend(1)
    _inline_pool(backend, monkeypatch)
    store = MemoryStore()
    Campaign([ClusterSquareSpec(91)], store=store, backend=backend).run()
    assert store.get(ClusterSquareSpec(91).key()) == {
        "value": 91, "square": 8281,
    }
    assert default_cache().memo == {}
    # Default cache: pool workers wrote this host's disk store
    # themselves, so the pool fills the parent's memo and nothing
    # else.
    key = ClusterSquareSpec(92).key()
    (result,) = Campaign([ClusterSquareSpec(92)], backend=backend).run()
    assert default_cache().memo == {key: ({"value": 92, "square": 8464}, result)}
    assert JsonDirStore(tmp_path).get(key) is None


def test_warm_local_store_cells_are_not_dispatched(monkeypatch):
    """Cells the campaign's store already holds never reach the pool."""
    store = MemoryStore()
    warm = ClusterSquareSpec(101)
    store.put(warm.key(), {"value": 101, "square": 10201})
    cold = ClusterSquareSpec(102)
    backend = LocalProcessBackend(1)
    submitted = _inline_pool(backend, monkeypatch)
    rows = [
        (spec.value, outcome.result["square"], outcome.hit)
        for spec, outcome in Campaign(
            [warm, cold], store=store, backend=backend
        ).iter_outcomes()
    ]
    assert rows == [(101, 10201, True), (102, 10404, False)]
    assert submitted == [cold.key()]


def test_a_serial_campaign_decodes_each_payload_once(monkeypatch):
    """The campaign hands a serial backend's outcomes on as ``run_cell``
    made them: one decode per cold cell, none per warm one."""
    from repro.campaign import engine as campaign_engine

    decodes = []
    decode = campaign_engine._decode

    def counted(kind, payload):
        decodes.append(payload["value"])
        return decode(kind, payload)

    monkeypatch.setattr(campaign_engine, "_decode", counted)
    store = MemoryStore()
    specs = sweep(ClusterSquareSpec, {"value": (111, 112, 113)})
    with SerialBackend() as serial:
        Campaign(specs, store=store, backend=serial).run()
    assert decodes == [111, 112, 113]
    Campaign(specs, store=store, backend=SerialBackend()).run()
    assert decodes == [111, 112, 113] * 2  # a warm read decodes its hit


def test_batch_cells_validates():
    """No backend takes a gang width any more: ``batch_cells`` is an
    unknown argument, not a silently ignored one."""
    with pytest.raises(TypeError, match="takes no arguments"):
        SerialBackend(batch_cells=4)
    with pytest.raises(TypeError, match="batch_cells"):
        LocalProcessBackend(2, batch_cells=4)


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
