"""The HTTP fleet coordinator: :class:`HttpWorkerBackend`.

Shards a campaign's cells across worker processes speaking the existing
``/v1`` JSON protocol (``python -m repro worker``).  Design points:

- **Chunked dispatch** — each ``/v1/worker/run`` request carries up to
  ``chunk_cells`` cells (auto-sized from the grid by default), so
  small grids amortize HTTP round-trips instead of paying one request
  per cell.  Dispatch stays pull-based: a worker takes its next chunk
  when its request returns, so a slow worker never strands cells.
- **Bounded in-flight dispatch** — one pump thread per worker, each
  carrying at most one HTTP request, so a fleet of N workers never
  holds more than N chunks in flight regardless of grid size.
- **Time-sliced, preemptible cells** — with ``window_slice`` set, a
  worker runs at most that many DTM windows per request and returns
  either the finished payload or a versioned
  :class:`~repro.engine.EngineState` checkpoint.  The coordinator
  requeues partial cells (front of the queue) with their state, so the
  next slice — on *any* worker — resumes warm.  A worker that dies
  mid-slice loses only that slice: the dead-worker requeue re-dispatches
  from the last returned checkpoint instead of recomputing from zero.
- **Per-cell retry with worker blacklisting** — a chunk whose request
  fails transiently (connection refused/reset, timeout, 5xx, a reply
  that is not a JSON object) has its cells requeued *excluding* the
  worker that failed them; a worker failing ``blacklist_after``
  consecutive requests stops receiving work.  A cell is abandoned (→ :class:`~repro.errors.ClusterError`)
  only after ``max_attempts`` tries, and a 4xx response — the worker
  understood the request and rejected the cell itself — fails the grid
  immediately rather than burning retries.
- **Heartbeat-based dead-worker requeue** — a background thread polls
  each worker's ``/v1/worker/health``; a worker missing
  ``dead_after_missed`` consecutive heartbeats is declared dead, its
  pump threads stop pulling, and any cell it held in flight is requeued
  onto the survivors as soon as its socket errors out (warm, when the
  cell has a checkpoint).

The coordinator never decodes payloads — it forwards the workers'
encoded cell payloads (plus hit/compute-seconds provenance) back to the
campaign, which re-publishes them into the shared
:class:`~repro.campaign.ResultStore`.  That write-through is what makes
a distributed run warm the very cache a later local run reads.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Iterator, Sequence

from repro.api.http import ServiceError, call_json
from repro.campaign.stores import ResultStore
from repro.cluster.backends import Cell, CellResult, ExecutionBackend
from repro.cluster.wire import cell_to_wire
from repro.errors import ClusterError, ConfigurationError
from repro.obs.log import LOG
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER


def _normalize_worker_url(url: str) -> str:
    url = url.strip().rstrip("/")
    if not url:
        raise ConfigurationError("worker URL must not be empty")
    if "//" not in url:
        url = f"http://{url}"
    if not url.startswith(("http://", "https://")):
        raise ConfigurationError(
            f"worker URL must be http(s), got {url!r}"
        )
    return url


class _Worker:
    """Mutable per-worker dispatch state (guarded by the fleet lock)."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.alive = True
        self.consecutive_failures = 0
        self.missed_heartbeats = 0
        self.completed_cells = 0
        #: Cells currently inside an HTTP request to this worker —
        #: what the heartbeat rescues when the worker is declared dead.
        self.in_flight: dict[str, "_PendingCell"] = {}


class _PendingCell:
    """One cell awaiting dispatch, with its retry + resume history."""

    def __init__(self, key: str, wire: dict) -> None:
        self.key = key
        self.wire = wire
        self.attempts = 0
        self.excluded: set[str] = set()
        #: Last checkpoint returned by a time-sliced worker (None until
        #: the first partial slice completes).  Requeues carry it, so a
        #: rescued cell resumes warm instead of restarting.
        self.state: dict | None = None
        #: Windows completed as of ``state``.
        self.windows_done = 0
        #: Compute seconds accumulated across completed slices.
        self.compute_seconds = 0.0
        #: Completed slices (partial responses) so far.
        self.slices = 0


class HttpWorkerBackend(ExecutionBackend):
    """Coordinate a campaign across an HTTP worker fleet."""

    name = "http"
    in_process = False
    #: Workers may live on other machines: the coordinator must assume
    #: nothing about their caches and write every payload through the
    #: campaign's own store.
    shares_disk = False

    def __init__(
        self,
        workers: Sequence[str],
        *,
        timeout_s: float = 300.0,
        health_timeout_s: float = 3.0,
        heartbeat_interval_s: float = 1.0,
        dead_after_missed: int = 2,
        max_attempts: int = 3,
        blacklist_after: int = 2,
        chunk_cells: int | None = None,
        window_slice: int | None = None,
    ) -> None:
        urls = [_normalize_worker_url(url) for url in workers]
        if not urls:
            raise ConfigurationError(
                "http backend needs at least one worker URL"
            )
        if len(set(urls)) != len(urls):
            raise ConfigurationError(f"duplicate worker URLs in {urls}")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if chunk_cells is not None and chunk_cells < 1:
            raise ConfigurationError("chunk_cells must be >= 1 or None (auto)")
        if window_slice is not None and window_slice < 1:
            raise ConfigurationError("window_slice must be >= 1 or None")
        if chunk_cells is not None and window_slice is not None:
            raise ConfigurationError(
                "chunk_cells cannot be combined with window_slice: "
                "time-sliced dispatch sends one cell per request so each "
                "partial checkpoint maps to exactly one cell"
            )
        self.timeout_s = timeout_s
        self.health_timeout_s = health_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.dead_after_missed = dead_after_missed
        self.max_attempts = max_attempts
        self.blacklist_after = blacklist_after
        #: Cells per request; None auto-sizes per batch (two dispatch
        #: waves per worker, so stragglers can still be rebalanced).
        self.chunk_cells = chunk_cells
        #: Max DTM windows a worker may run per request (None = whole
        #: cell).  Slicing forces one cell per request so each partial
        #: checkpoint maps to exactly one cell.  Size slices generously
        #: for trace-recording cells (ch5 records every window): the
        #: checkpoint state carries the trace-so-far, so each slice
        #: ships it both ways — slice wall time should dwarf that.
        self.window_slice = window_slice
        self._workers = [_Worker(url) for url in urls]
        #: Cells per request for the current batch (set at submit).
        self._chunk = 1
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._pending: deque[_PendingCell] = deque()
        self._results: deque[CellResult] = deque()
        self._remaining = 0
        #: Keys already delivered.  A cell can legitimately execute
        #: twice (heartbeat-rescued off a hung worker whose request
        #: later completes anyway); only the first delivery counts.
        self._done: set[str] = set()
        #: Per-cell completion provenance (see :meth:`dispatch_stats`).
        self._completions: dict[str, dict] = {}
        self._partial_slices = 0
        self._fatal: ClusterError | None = None
        #: Batch generation.  A pump thread from an abandoned batch may
        #: survive inside a blocking request past the next submit; its
        #: stale generation makes every later deliver/requeue a no-op.
        self._generation = 0
        self._closed = False
        #: The submitting caller's trace context (see submit_cells).
        self._trace_header: str | None = None

    # -- protocol ----------------------------------------------------------

    def _auto_chunk(self, cells: int) -> int:
        if self.window_slice is not None:
            return 1
        if self.chunk_cells is not None:
            return self.chunk_cells
        # Two dispatch waves per worker, but never more than 16 cells
        # per request: an uncapped chunk on a huge grid (cells >> workers)
        # serializes whole shards behind single requests, so adding
        # workers stops shrinking the chunk — and therefore stops
        # adding parallelism or retry granularity.
        return max(1, min(math.ceil(cells / (len(self._workers) * 2)), 16))

    def submit_cells(
        self, cells: Sequence[Cell], store: ResultStore | None = None
    ) -> None:
        """Encode cells onto the dispatch queue and start the pumps.

        ``store`` is accepted for protocol parity but cannot cross the
        wire: workers always execute against their *own* default store
        stack, and the coordinator merges the returned payloads into
        the campaign's store instead.
        """
        if self._closed:
            raise ConfigurationError("backend is closed")
        self._end_batch()
        self._stop.clear()
        # Pump threads have no ambient trace context (contextvars do not
        # cross threads); capture the submitting caller's context once
        # and replay it on every worker request this batch makes.
        self._trace_header = TRACER.propagation_header()
        with self._cond:
            self._generation += 1
            generation = self._generation
            self._pending = deque(
                _PendingCell(key, cell_to_wire(spec)) for key, spec in cells
            )
            self._results = deque()
            self._remaining = len(self._pending)
            self._done = set()
            self._completions = {}
            self._partial_slices = 0
            self._fatal = None
            self._chunk = self._auto_chunk(len(self._pending))
            for worker in self._workers:
                worker.alive = True
                worker.consecutive_failures = 0
                worker.missed_heartbeats = 0
                worker.in_flight = {}
        if self._remaining == 0:
            return
        self._threads = [
            threading.Thread(
                target=self._pump,
                args=(worker, generation),
                name=f"repro-fleet-pump-{index}",
                daemon=True,
            )
            for index, worker in enumerate(self._workers)
        ]
        self._threads.append(
            threading.Thread(
                target=self._heartbeat,
                args=(generation,),
                name="repro-fleet-heartbeat",
                daemon=True,
            )
        )
        for thread in self._threads:
            thread.start()

    def iter_results(self) -> Iterator[CellResult]:
        delivered = 0
        with self._cond:
            expected = self._remaining + len(self._results)
        try:
            while delivered < expected:
                with self._cond:
                    while not self._results and self._fatal is None:
                        self._cond.wait(timeout=0.2)
                    if self._fatal is not None and not self._results:
                        raise self._fatal
                    item = self._results.popleft()
                delivered += 1
                yield item
        finally:
            self._end_batch()

    def close(self) -> None:
        self._closed = True
        self._end_batch()

    # -- dispatch machinery ------------------------------------------------

    def _end_batch(self) -> None:
        """Stop pumps and heartbeat; safe to call repeatedly."""
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = []

    def _live_urls(self) -> set[str]:
        return {w.url for w in self._workers if w.alive}

    def _take_chunk(
        self, worker: _Worker, generation: int
    ) -> list[_PendingCell]:
        """Up to one chunk of cells this worker may run; [] = pump exit."""
        with self._cond:
            while True:
                if (
                    generation != self._generation
                    or self._stop.is_set()
                    or self._fatal is not None
                    or not worker.alive
                    or self._remaining <= 0
                ):
                    return []
                taken: list[_PendingCell] = []
                index = 0
                while index < len(self._pending) and len(taken) < self._chunk:
                    cell = self._pending[index]
                    if worker.url in cell.excluded:
                        index += 1
                        continue
                    del self._pending[index]
                    worker.in_flight[cell.key] = cell
                    taken.append(cell)
                if taken:
                    return taken
                # Nothing dispatchable to this worker.  A pending cell
                # whose exclusion set covers every live worker can
                # never be dispatched by anyone — the live set may have
                # shrunk since it was requeued — so reopen it rather
                # than spinning forever.
                live = self._live_urls()
                reopened = False
                for cell in self._pending:
                    if cell.excluded and live <= cell.excluded:
                        cell.excluded.clear()
                        reopened = True
                if reopened:
                    continue
                self._cond.wait(timeout=0.2)

    def _pump(self, worker: _Worker, generation: int) -> None:
        """One worker's loop: pull a chunk, POST it, deliver or requeue."""
        while True:
            cells = self._take_chunk(worker, generation)
            if not cells:
                return
            try:
                completed, partials = self._post_run(worker, cells)
            except ServiceError as error:
                if error.status is not None and 400 <= error.status < 500:
                    # The worker parsed the request and rejected a
                    # cell itself — retrying elsewhere cannot help.
                    self._set_fatal(
                        f"worker {worker.url} rejected cells "
                        f"{[cell.key for cell in cells]} "
                        f"({error.status}): {error.error}",
                        generation,
                    )
                else:
                    # A 5xx, a transport failure or a non-JSON reply.
                    self._requeue(worker, cells, str(error), generation)
            except ClusterError as error:
                self._requeue(worker, cells, str(error), generation)
            except Exception as error:  # noqa: BLE001
                # Anything unexpected (e.g. a version-skewed worker
                # returning shapes _post_run didn't anticipate) must
                # not kill this dispatch thread silently — that would
                # strand the cells in flight and hang the grid.  Treat
                # it like any other per-attempt failure: retry budget,
                # then ClusterError.
                self._requeue(worker, cells, repr(error), generation)
            else:
                self._deliver(worker, completed, partials, generation)

    def _post_run(
        self, worker: _Worker, cells: list[_PendingCell]
    ) -> tuple[list[tuple[_PendingCell, dict]], list[tuple[_PendingCell, dict]]]:
        """POST one chunk; returns (completed, partial) raw cell results."""
        body: dict = {"cells": [cell.wire for cell in cells]}
        if self.window_slice is not None:
            body["window_slice"] = self.window_slice
            resume = {
                cell.key: cell.state for cell in cells if cell.state is not None
            }
            if resume:
                body["resume"] = resume
        document = call_json(
            "POST",
            f"{worker.url}/v1/worker/run",
            body,
            timeout_s=self.timeout_s,
            trace_header=self._trace_header,
        )
        raw_results = document.get("results")
        if not isinstance(raw_results, list) or len(raw_results) != len(cells):
            raise ClusterError(
                f"worker {worker.url} returned a malformed run document "
                f"({len(cells)} cells sent)"
            )
        by_key = {cell.key: cell for cell in cells}
        completed: list[tuple[_PendingCell, dict]] = []
        partials: list[tuple[_PendingCell, dict]] = []
        for raw in raw_results:
            key = raw.get("key")
            if not isinstance(key, str) or key not in by_key:
                raise ClusterError(
                    f"worker {worker.url} answered with unexpected cell "
                    f"key {key!r} — spec/worker version skew?"
                )
            cell = by_key.pop(key)
            if raw.get("partial"):
                state = raw.get("state")
                if not isinstance(state, dict):
                    raise ClusterError(
                        f"worker {worker.url} returned a partial cell "
                        f"{key} without a checkpoint state"
                    )
                partials.append((cell, raw))
            else:
                payload = raw.get("payload")
                if not isinstance(payload, dict):
                    raise ClusterError(
                        f"worker {worker.url} returned a malformed cell result"
                    )
                completed.append((cell, raw))
        if by_key:
            raise ClusterError(
                f"worker {worker.url} dropped cells {sorted(by_key)} "
                f"from its run document"
            )
        return completed, partials

    def _deliver(
        self,
        worker: _Worker,
        completed: list[tuple[_PendingCell, dict]],
        partials: list[tuple[_PendingCell, dict]],
        generation: int,
    ) -> None:
        with self._cond:
            if generation != self._generation:
                return
            worker.consecutive_failures = 0
            for cell, raw in completed:
                worker.in_flight.pop(cell.key, None)
                if cell.key in self._done:
                    # A heartbeat-rescued duplicate already delivered
                    # this cell; drop the late copy.
                    continue
                self._done.add(cell.key)
                worker.completed_cells += 1
                seconds = cell.compute_seconds + float(
                    raw.get("compute_seconds", 0.0)
                )
                self._completions[cell.key] = {
                    "worker": worker.url,
                    "slices": cell.slices + 1,
                    "windows_done": int(raw.get("windows_done", 0)),
                    "resumed_from": int(raw.get("resumed_from", 0)),
                    "cache": raw.get("cache", "miss"),
                }
                self._results.append((
                    cell.key,
                    raw["payload"],
                    raw.get("cache") == "hit",
                    round(seconds, 6),
                    {},
                ))
                self._remaining -= 1
            for cell, raw in partials:
                worker.in_flight.pop(cell.key, None)
                self._partial_slices += 1
                if cell.key in self._done or self._cell_is_active(cell):
                    continue
                cell.state = raw["state"]
                cell.windows_done = int(raw.get("windows_done", 0))
                cell.compute_seconds += float(raw.get("compute_seconds", 0.0))
                cell.slices += 1
                # Front of the queue: the next free worker continues this
                # cell while its worker-side caches are still warm.
                self._pending.appendleft(cell)
            self._cond.notify_all()

    def _cell_is_active(self, cell: _PendingCell) -> bool:
        """Whether ``cell`` is already queued or in flight elsewhere."""
        if any(cell is queued for queued in self._pending):
            return True
        return any(
            cell is held
            for worker in self._workers
            for held in worker.in_flight.values()
        )

    def _requeue(
        self,
        worker: _Worker,
        cells: list[_PendingCell],
        why: str,
        generation: int,
    ) -> None:
        with self._cond:
            if generation != self._generation:
                return
            METRICS.counter_inc(
                "repro_fleet_requeues_total",
                "Dispatch failures that requeued cells",
            )
            worker.consecutive_failures += 1
            if worker.consecutive_failures >= self.blacklist_after:
                self._mark_worker_dead(worker, generation)
            for cell in cells:
                worker.in_flight.pop(cell.key, None)
                if cell.key in self._done or self._cell_is_active(cell):
                    # The heartbeat already rescued this cell off the
                    # dying worker (and it may even have finished
                    # elsewhere); this late failure only counts against
                    # the worker.
                    continue
                cell.attempts += 1
                METRICS.counter_inc(
                    "repro_fleet_cell_retries_total",
                    "Cell attempts burned by dispatch failures",
                )
                if cell.attempts >= self.max_attempts:
                    self._fatal = ClusterError(
                        f"cell {cell.key} failed after {cell.attempts} "
                        f"attempts; last worker {worker.url}: {why}"
                    )
                    continue
                cell.excluded.add(worker.url)
                live = self._live_urls()
                if not live:
                    self._fatal = ClusterError(
                        f"all workers are dead or blacklisted "
                        f"(last failure on {worker.url}: {why})"
                    )
                    continue
                if live <= cell.excluded:
                    # Every live worker already failed this cell once;
                    # let the retry budget, not the exclusion set,
                    # decide when to give up.
                    cell.excluded.clear()
                # The cell keeps any checkpoint from earlier slices, so
                # the retry resumes warm wherever it lands.
                self._pending.append(cell)
            self._cond.notify_all()

    def _mark_worker_dead(self, worker: _Worker, generation: int) -> None:
        """Stop dispatching to ``worker`` and rescue its in-flight cells.

        The pump thread holding a request to a dead-but-hung worker may
        stay blocked until its HTTP timeout; requeueing its cells here
        lets the survivors pick them up immediately — resuming from the
        cell's last checkpoint when time-sliced dispatch has produced
        one.  If the original request does complete later,
        :meth:`_deliver` deduplicates.
        """
        with self._cond:
            if generation != self._generation:
                return
            if worker.alive:
                METRICS.counter_inc(
                    "repro_fleet_workers_blacklisted_total",
                    "Workers marked dead/blacklisted by the coordinator",
                )
                LOG.warning(
                    "fleet.worker_dead",
                    worker=worker.url,
                    rescued=len(worker.in_flight),
                )
            worker.alive = False
            for key, cell in list(worker.in_flight.items()):
                worker.in_flight.pop(key, None)
                if key in self._done or self._cell_is_active(cell):
                    continue
                self._pending.append(cell)
            self._cond.notify_all()

    def _set_fatal(self, message: str, generation: int) -> None:
        with self._cond:
            if generation != self._generation:
                return
            self._fatal = ClusterError(message)
            self._cond.notify_all()

    # -- heartbeat ---------------------------------------------------------

    def _heartbeat(self, generation: int) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            with self._cond:
                if (
                    generation != self._generation
                    or self._fatal is not None
                    or self._remaining <= 0
                ):
                    return
                workers = [w for w in self._workers if w.alive]
            for worker in workers:
                healthy = self._check_health(worker)
                with self._cond:
                    if generation != self._generation:
                        return
                    if healthy:
                        worker.missed_heartbeats = 0
                    else:
                        worker.missed_heartbeats += 1
                        if worker.missed_heartbeats >= self.dead_after_missed:
                            self._mark_worker_dead(worker, generation)
            with self._cond:
                if generation != self._generation:
                    return
                if not self._live_urls() and self._remaining > 0:
                    if self._fatal is None:
                        self._fatal = ClusterError(
                            "all workers stopped answering heartbeats"
                        )
                    self._cond.notify_all()
                    return

    def _check_health(self, worker: _Worker) -> bool:
        try:
            document = call_json(
                "GET",
                f"{worker.url}/v1/worker/health",
                timeout_s=self.health_timeout_s,
            )
        except ServiceError:
            return False
        return document.get("status") == "ok"

    # -- introspection -----------------------------------------------------

    def fleet_stats(self) -> list[dict]:
        """Per-worker dispatch counters (for logs, tests, and the CLI).

        ``in_flight_cells`` lists the keys currently inside an HTTP
        request to that worker — what a kill at this instant would
        interrupt.
        """
        with self._cond:
            return [
                {
                    "url": w.url,
                    "alive": w.alive,
                    "completed_cells": w.completed_cells,
                    "consecutive_failures": w.consecutive_failures,
                    "in_flight_cells": sorted(w.in_flight),
                }
                for w in self._workers
            ]

    def dispatch_stats(self) -> dict:
        """Batch-level dispatch provenance.

        ``cells`` maps each delivered key to its completion record:
        which worker finished it, how many slices it took, the window
        count at completion, and ``resumed_from`` — the window the
        final slice started at (``> 0`` means the cell finished from a
        warm checkpoint rather than from scratch).
        """
        with self._cond:
            return {
                "chunk_cells": self._chunk,
                "window_slice": self.window_slice,
                "partial_slices": self._partial_slices,
                "cells": {
                    key: dict(record)
                    for key, record in self._completions.items()
                },
            }
