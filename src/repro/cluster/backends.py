"""Execution backends — where a campaign's deduplicated cells run.

:class:`~repro.campaign.Campaign` owns *what* to run (dedup, spec
order, and closing a backend it built); a backend owns *where*: the
calling process (:class:`SerialBackend`) or a pool of local worker
processes (:class:`LocalProcessBackend`).  Each has one method,
``run_cells(specs, store)``, which yields every cell's
:class:`~repro.campaign.RunOutcome` in the order of ``specs``.
``store`` is the campaign's *explicit* store, or ``None`` for "each
process resolves its own default cache".

Backends are context managers.  A campaign that builds its own backend
closes it when the run (or an abandoned iterator) finishes; a backend
passed in from outside is *borrowed* and survives the campaign, so one
process pool can serve many grids::

    with LocalProcessBackend(jobs=8) as backend:
        Campaign(specs_a, backend=backend).run()
        Campaign(specs_b, backend=backend).run()   # same pool, no respawn
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.campaign.engine import (
    RunOutcome,
    adopt_outcome,
    cached_outcome,
    run_cell,
)
from repro.campaign.spec import RunSpec
from repro.campaign.stores import ResultStore
from repro.errors import ConfigurationError
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - types only
    from concurrent.futures import ProcessPoolExecutor


class SerialBackend:
    """Run every cell in the calling process, one at a time.

    Execution is lazy — each cell runs when the iterator reaches it —
    which preserves the campaign's streaming behavior: early cells are
    yielded to the consumer while later ones have not started.
    """

    def run_cells(
        self, specs: Sequence[RunSpec], store: ResultStore | None
    ) -> Iterator[RunOutcome]:
        for spec in specs:
            yield run_cell(spec, store)

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The frozen benchmark harness still imports this name; it is the
#: serial backend.
VectorBackend = SerialBackend


def _pool_worker(
    spec: RunSpec, store: ResultStore | None, trace: tuple | None = None
) -> tuple[RunOutcome, list]:
    """Pool-worker entry: run one spec; return its outcome without the
    decoded result (the caller decodes the payload) and its spans.

    With no explicit store the worker uses its own default cache, so
    results cached by earlier campaigns (or sibling workers) hit the
    shared disk store; an explicit store arrives as a pickled copy, so
    a disk store is shared but a memory store is private.  A ``trace``
    of the caller's ``(header, ring)`` runs the cell inside the
    caller's trace, bounded like it, and its spans come back for the
    caller's ring.
    """
    if trace is None:
        return replace(run_cell(spec, store), result=None), []
    header, ring = trace
    TRACER.configure(enabled=True, ring=ring)
    TRACER.clear()
    with TRACER.activate(*TRACER.parse_header(header)):
        outcome = run_cell(spec, store)
    return replace(outcome, result=None), TRACER.spans()


class LocalProcessBackend:
    """Run cells on a pool of local worker processes.

    The pool is created lazily on the first cold cell and *reused*
    across campaigns until :meth:`close` — campaigns do not pay a
    fork-and-import tax per ``run()`` call.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("backend is closed")
        if self._pool is None:
            # Imported here: a serial run never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def run_cells(
        self, specs: Sequence[RunSpec], store: ResultStore | None
    ) -> Iterator[RunOutcome]:
        """Serve the cached cells here and the rest on the pool.

        Cells already cached are never dispatched, so a warm grid
        starts no pool.  The cold ones are submitted together (inside
        the caller's trace, when one is active), and each is published
        in this process as it is yielded (:func:`adopt_outcome`).
        Closing the iterator early cancels the cells not yet started.
        """
        outcomes = [cached_outcome(spec, store) for spec in specs]
        futures = {}
        if None in outcomes:
            pool = self._ensure_pool()
            # A traced caller's context rides along; untraced, nothing does.
            header = TRACER.propagation_header()
            trace = () if header is None else ((header, TRACER.ring_size),)
            futures = {
                index: pool.submit(_pool_worker, spec, store, *trace)
                for index, (spec, outcome) in enumerate(zip(specs, outcomes))
                if outcome is None
            }
        try:
            for index, spec in enumerate(specs):
                outcome = outcomes[index]
                if outcome is None:
                    outcome, spans = futures[index].result()
                    for span in spans:
                        TRACER.record(span)
                    outcome = adopt_outcome(spec, outcome, store)
                yield outcome
        finally:
            for future in futures.values():
                future.cancel()

    def close(self) -> None:
        """Cancel pending cells and shut the pool down.

        ``wait=False`` keeps an abandoned mid-grid iterator from
        blocking on in-flight cells; workers exit as soon as their
        current cell finishes, so no stray processes outlive the
        backend.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "LocalProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
