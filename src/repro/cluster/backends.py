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

from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from typing import ClassVar, Iterator, Sequence

from repro.campaign.engine import run_cell
from repro.campaign.spec import RunSpec
from repro.campaign.stores import ResultStore
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
            outcome = run_cell(spec, self._store)
            yield (
                key, outcome.payload, outcome.hit,
                outcome.compute_seconds, outcome.store_info,
            )


#: The frozen benchmark harness still imports this name; it is the
#: serial backend.
VectorBackend = SerialBackend


def _pool_worker_execute(
    spec: RunSpec, store: ResultStore | None
) -> CellResult:
    """Pool-worker entry: run one spec, return its :data:`CellResult`.

    With no explicit store the worker uses its own default stack, so
    results cached by earlier campaigns (or sibling workers) hit the
    shared disk layer; an explicit store arrives as a pickled copy, so
    its disk layers are shared but memory layers are private.
    """
    outcome = run_cell(spec, store)
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
