"""Execution backends — where a campaign's deduplicated cells run.

:class:`~repro.campaign.Campaign` owns *what* to run (dedup, ordering,
caching, provenance); an :class:`ExecutionBackend` owns *where*: the
calling process (:class:`SerialBackend`), a pool of local worker
processes (:class:`LocalProcessBackend`), or an HTTP worker fleet
(:class:`~repro.cluster.http.HttpWorkerBackend`).

The protocol is two calls per batch:

- ``submit_cells(cells, store=...)`` hands over the unique
  ``(key, spec)`` cells.  ``store`` is the campaign's *explicit* store
  or ``None`` for "each executor resolves its own default stack" —
  the sentinel convention the process pool has always used.
- ``iter_results()`` yields
  ``(key, payload, hit, compute_seconds, store_info)`` once per
  submitted cell, in any order.  Payloads are the encoded (JSON-safe)
  form, so the campaign can re-publish them into its own store and
  decode them exactly like cache hits; ``store_info`` is the store's
  single-flight provenance for the cell (``{}`` for plain warm hits).

Backends are context managers.  A campaign that builds its own backend
closes it when the run (or an abandoned iterator) finishes; a backend
passed in from outside is *borrowed* and survives the campaign, so one
process pool or worker fleet can serve many grids::

    with LocalProcessBackend(jobs=8) as backend:
        Campaign(specs_a, backend=backend).run()
        Campaign(specs_b, backend=backend).run()   # same pool, no respawn

Two class flags tell the campaign how results relate to its cache:
``in_process`` (payloads were already written through the campaign's
store) and ``shares_disk`` (executors share this host's default disk
layer, so only the in-process memo needs backfilling).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from typing import ClassVar, Iterator, Sequence

from repro.campaign.engine import cached_payload, run_outcome
from repro.campaign.spec import RunSpec, runner_for, spec_meta
from repro.campaign.stores import (
    ResultStore,
    SingleFlightStore,
    default_store,
)
from repro.engine.gang import plan_gangs
from repro.errors import ConfigurationError

#: One submitted cell: (cache key, run spec).
Cell = tuple[str, RunSpec]
#: One delivered result:
#: (cache key, payload, cache_hit, compute_seconds, store_info).
CellResult = tuple[str, dict, bool, float, dict]


class ExecutionBackend(ABC):
    """Where campaign cells execute (see module docstring for protocol)."""

    #: Registry name (the CLI's ``--backend`` vocabulary).
    name: ClassVar[str] = "?"
    #: True when results were computed in this process *through the
    #: campaign's store* — no coordinator backfill needed.
    in_process: ClassVar[bool] = False
    #: True when executors share this host's default disk cache layer.
    shares_disk: ClassVar[bool] = False

    @abstractmethod
    def submit_cells(
        self, cells: Sequence[Cell], store: ResultStore | None = None
    ) -> None:
        """Accept one batch of unique cells (replaces any prior batch)."""

    @abstractmethod
    def iter_results(self) -> Iterator[CellResult]:
        """Yield each submitted cell's result exactly once, any order."""

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every cell in the calling process, one at a time.

    Execution is lazy — each cell runs when :meth:`iter_results`
    reaches it — which preserves the campaign's streaming behavior:
    early cells are yielded to the consumer while later ones have not
    started.
    """

    name = "serial"
    in_process = True
    shares_disk = True

    def __init__(self) -> None:
        self._cells: list[Cell] = []
        self._store: ResultStore | None = None

    def submit_cells(
        self, cells: Sequence[Cell], store: ResultStore | None = None
    ) -> None:
        self._cells = list(cells)
        self._store = store

    def iter_results(self) -> Iterator[CellResult]:
        for key, spec in self._cells:
            outcome = run_outcome(spec, self._store)
            yield (
                key, outcome.payload, outcome.hit,
                outcome.compute_seconds, outcome.store_info,
            )


class VectorBackend(ExecutionBackend):
    """Run compatible cells in lock-stepped gangs, in this process.

    The batch is planned once per :meth:`iter_results` pass with
    :func:`repro.engine.gang.plan_gangs`: cache misses group into
    lockstep gangs (capped at ``batch_cells`` members) stepping
    one :class:`~repro.core.kernel.GridMemSpot` per window, and
    incompatible leftovers fall back to per-cell serial execution.
    Results are bit-identical to :class:`SerialBackend` — gangs reuse
    the exact solo stepping halves and the grid kernel reproduces the
    scalar float ops — so payloads, and therefore cache keys and
    envelopes, match byte for byte.

    ``kernel_backend`` picks the grid arithmetic: ``"auto"`` uses NumPy
    when importable and pure python otherwise, ``"numpy"`` insists,
    ``"python"`` opts out.  Like :class:`SerialBackend` the results are
    computed through the campaign's store (``in_process``), with cache
    hits self-served before any gang runs; unlike serial, cells inside
    one gang finish together, so streaming granularity is the gang, not
    the cell, and gang-hosted cells do not surface individual
    ``/v1/progress`` labels.
    """

    name = "vector"
    in_process = True
    shares_disk = True

    def __init__(
        self, batch_cells: int = 16, kernel_backend: str = "auto"
    ) -> None:
        if batch_cells < 2:
            raise ConfigurationError("batch_cells must be >= 2")
        if kernel_backend not in ("auto", "numpy", "python"):
            raise ConfigurationError(
                "kernel backend must be 'auto', 'numpy' or 'python', "
                f"got {kernel_backend!r}"
            )
        self.batch_cells = batch_cells
        self.kernel_backend = kernel_backend
        self._cells: list[Cell] = []
        self._store: ResultStore | None = None

    def submit_cells(
        self, cells: Sequence[Cell], store: ResultStore | None = None
    ) -> None:
        self._cells = list(cells)
        self._store = store

    def iter_results(self) -> Iterator[CellResult]:
        store = default_store() if self._store is None else self._store
        # When the store coalesces (the default stack does), register a
        # flight per cold cell before the gangs run: an API request
        # racing this batch for the same cell waits for the gang
        # instead of recomputing, and cells another thread is already
        # computing are followed instead of ganged.
        flights = store if isinstance(store, SingleFlightStore) else None
        led: set[str] = set()
        misses: list[Cell] = []
        try:
            for key, spec in self._cells:
                payload = cached_payload(spec, store)
                if payload is not None:
                    yield key, payload, True, 0.0, {}
                    continue
                if flights is not None:
                    if flights.try_lead(key):
                        led.add(key)
                    else:
                        joined = flights.follow(key)
                        if joined is not None:
                            yield (
                                key, joined, True, 0.0,
                                {"single_flight": "coalesced"},
                            )
                            continue
                        # The other leader failed; claim the flight
                        # ourselves (best effort) and compute.
                        if flights.try_lead(key):
                            led.add(key)
                misses.append((key, spec))
            if not misses:
                return
            plan = plan_gangs(
                misses,
                batch_cells=self.batch_cells,
                backend=self.kernel_backend,
            )
            for planned in plan.gangs:
                started = time.perf_counter()
                results = planned.gang.run_to_completion()
                # The gang's wall time is genuinely joint; attribute an
                # equal share to each cell so provenance sums correctly.
                per_cell = (time.perf_counter() - started) / len(results)
                for (key, spec), result in zip(planned.cells, results):
                    payload = runner_for(spec.kind).encode(result)
                    store.put(key, payload, meta=spec_meta(spec))
                    if flights is not None:
                        flights.settle(key, payload)
                        led.discard(key)
                    yield key, payload, False, per_cell, {}
            for key, spec in plan.solo:
                # ``run_outcome`` re-enters ``get_or_compute``; the
                # flight table recognizes this thread as the owner and
                # passes straight through, so settling stays ours.
                outcome = run_outcome(spec, store)
                if flights is not None:
                    flights.settle(key, outcome.payload)
                    led.discard(key)
                yield (
                    key, outcome.payload, outcome.hit,
                    outcome.compute_seconds, outcome.store_info,
                )
        finally:
            if flights is not None:
                # Wake followers of any cell we claimed but never
                # finished (error, abandoned iterator) empty-handed so
                # they recompute instead of waiting forever.
                for key in led:
                    flights.settle(key, None)


def _pool_worker_execute(
    spec: RunSpec, store: ResultStore | None
) -> CellResult:
    """Pool-worker entry: run one spec, return its :data:`CellResult`.

    With no explicit store the worker uses its own default stack, so
    results cached by earlier campaigns (or sibling workers) hit the
    shared disk layer; an explicit store arrives as a pickled copy, so
    its disk layers are shared but memory layers are private.
    """
    outcome = run_outcome(spec, store)
    return (
        spec.key(), outcome.payload, outcome.hit,
        outcome.compute_seconds, outcome.store_info,
    )


class LocalProcessBackend(ExecutionBackend):
    """Run cells on a pool of local worker processes.

    The pool is created lazily on first submit and *reused* across
    submissions until :meth:`close` — campaigns no longer pay a
    fork-and-import tax per ``run()`` call.  Submitting a new batch
    cancels any still-pending futures from an abandoned previous one.
    """

    name = "local"
    shares_disk = True

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict[str, Future] = {}
        self._closed = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("backend is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def submit_cells(
        self, cells: Sequence[Cell], store: ResultStore | None = None
    ) -> None:
        for future in self._futures.values():
            future.cancel()
        pool = self._ensure_pool()
        self._futures = {
            key: pool.submit(_pool_worker_execute, spec, store)
            for key, spec in cells
        }

    def iter_results(self) -> Iterator[CellResult]:
        for key, future in self._futures.items():
            _, payload, hit, seconds, info = future.result()
            yield key, payload, hit, seconds, info

    def close(self) -> None:
        """Cancel pending cells and shut the pool down.

        ``wait=False`` keeps an abandoned mid-grid iterator from
        blocking on in-flight cells; workers exit as soon as their
        current cell finishes, so no stray processes outlive the
        backend.
        """
        self._closed = True
        for future in self._futures.values():
            future.cancel()
        self._futures = {}
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
