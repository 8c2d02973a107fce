"""repro.cluster: the serial and local-process execution backends."""

from __future__ import annotations

import multiprocessing
import time
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
    run_payload,
    spec_key,
    sweep,
)
from repro.cluster import (
    BACKEND_CHOICES,
    LocalProcessBackend,
    SerialBackend,
    backend_for,
)
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

    def __init__(self, spec, extra_observers: tuple = ()) -> None:
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
        backend.submit_cells([])


def test_process_backend_streams_in_spec_order():
    specs = sweep(ClusterSquareSpec, {"value": (11, 12, 13, 11)})
    with LocalProcessBackend(jobs=2) as backend:
        campaign = Campaign(specs, store=MemoryStore(), backend=backend)
        rows = [
            (spec.value, result["square"], hit)
            for spec, result, hit, _ in campaign.iter_run()
        ]
    # Spec order, and the duplicate cell is a hit on its repeat.
    assert rows == [
        (11, 121, False), (12, 144, False), (13, 169, False), (11, 121, True),
    ]


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


class _PrivateStoreBackend(SerialBackend):
    """Computes against a private store, as a pool worker does with its
    pickled store copy, and records the cells it was handed."""

    in_process = False

    def submit_cells(self, cells, store=None) -> None:
        super().submit_cells(cells, store)
        self.submitted = [key for key, _ in cells]

    def iter_results(self):
        private = MemoryStore()
        for key, spec in self._cells:
            payload, hit, seconds = run_payload(spec, private)
            yield key, payload, hit, seconds, {}


def test_pool_payloads_fill_the_explicit_store_or_the_memo(
    tmp_path, monkeypatch
):
    # Explicit store: payloads computed elsewhere land in it.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    store = MemoryStore()
    Campaign(
        [ClusterSquareSpec(91)], store=store, backend=_PrivateStoreBackend()
    ).run()
    assert store.get(ClusterSquareSpec(91).key()) == {
        "value": 91, "square": 8281,
    }
    assert default_cache().memo == {}
    # Default cache: pool workers wrote this host's disk store
    # themselves, so the campaign fills the parent's memo and nothing
    # else.
    key = ClusterSquareSpec(92).key()
    (result,) = Campaign(
        [ClusterSquareSpec(92)], backend=_PrivateStoreBackend()
    ).run()
    assert default_cache().memo == {key: ({"value": 92, "square": 8464}, result)}
    assert JsonDirStore(tmp_path).get(key) is None


def test_warm_local_store_cells_are_not_dispatched():
    """Cells the campaign's store already holds never reach the pool."""
    store = MemoryStore()
    warm = ClusterSquareSpec(101)
    store.put(warm.key(), {"value": 101, "square": 10201})
    cold = ClusterSquareSpec(102)
    backend = _PrivateStoreBackend()
    rows = [
        (spec.value, result["square"], hit)
        for spec, result, hit, _ in Campaign(
            [warm, cold], store=store, backend=backend
        ).iter_run()
    ]
    assert rows == [(101, 10201, True), (102, 10404, False)]
    assert backend.submitted == [cold.key()]


# ---------------------------------------------------------------------------
# Backend factory
# ---------------------------------------------------------------------------


def test_backend_for_factory():
    assert isinstance(backend_for("serial"), SerialBackend)
    local = backend_for("local", jobs=3)
    assert isinstance(local, LocalProcessBackend) and local.jobs == 3
    assert set(BACKEND_CHOICES) == {"local", "serial"}
    # --jobs shapes the local pool; on the serial backend it must fail
    # loudly rather than be silently ignored.
    with pytest.raises(ConfigurationError, match="jobs does not apply"):
        backend_for("serial", jobs=4)
    for retired in ("http", "quantum", "vector"):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            backend_for(retired)


def test_batch_cells_validates():
    """No backend takes a gang width any more: ``batch_cells`` is an
    unknown argument, not a silently ignored one."""
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
