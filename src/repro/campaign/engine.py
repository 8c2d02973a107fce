"""Campaign execution: single runs, grid expansion, ordered batches.

:func:`run_cell` is the one cell runner: every cell, whole or
time-sliced, fresh or resumed, runs through it on its stepping engine,
and :func:`run` is the plain entry point over it.  :func:`sweep`
expands a declarative parameter grid into specs.  :class:`Campaign`
executes a list of specs — equal specs run once, by a
backend's ``run_cells`` (in-process serial or a local process pool,
:mod:`repro.cluster`) — and returns results in the order the specs
were given, so tables built from a campaign are byte-identical no
matter where the cells ran.

Every returned result is the decode of its cache payload (fresh runs
are round-tripped through the codec before returning), so fresh and
cached calls yield identical shapes.  ``run_cell`` and the process
pool look a cell up through one routine, :func:`_lookup`: with no
explicit store, the default cache's memo of decoded cells
(:func:`~repro.campaign.stores.default_cache`), otherwise the store's
``get`` and one decode.  An explicit store is plain ``get``/``put``
and never fronted by the memo.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.campaign.spec import RunSpec, runner_for, spec_meta
from repro.campaign.stores import ResultCache, ResultStore, default_cache
from repro.engine.codec import Count, Optional
from repro.engine.state import EngineState
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER


def _count_request(hit: bool) -> None:
    """Count one lookup transaction by its cache outcome."""
    METRICS.counter_inc(
        "repro_store_requests_total",
        "Result-store lookup transactions by cache outcome",
        cache="hit" if hit else "miss",
    )


def _decode(kind: str, payload: dict) -> Any:
    runner = runner_for(kind)
    try:
        return runner.decode(payload)
    except CheckpointError:
        # A stale payload from an older schema, or a damaged one: treat
        # it as a cache miss.
        return None


def _lookup(
    kind: str, key: str, store: ResultStore | None, cache: ResultCache | None
) -> tuple[dict, Any] | None:
    """The cell's cached ``(payload, result)``, or None on a miss.

    ``cache`` is the default cache when ``store`` is None: its memo
    first, otherwise its disk store, whose decoded hit then fills the
    memo.  An undecodable payload (an older schema, a damaged file) is
    a miss.
    """
    if cache is not None:
        entry = cache.memo.get(key)
        if entry is not None:
            return entry
        store = cache.disk
        if store is None:
            return None
    payload = store.get(key)
    if payload is None:
        return None
    result = _decode(kind, payload)
    if result is None:
        return None
    if cache is not None:
        cache.remember(key, (payload, result))
    return payload, result


@dataclass(frozen=True)
class RunOutcome:
    """Everything one cell run reports.

    ``key`` is the cache key the cell ran under.  A finished cell
    carries its ``payload`` and decoded ``result``; a time-sliced cell
    stopped before its end carries neither (both None) but the engine
    checkpoint ``state`` to continue from.
    ``compute_seconds`` is this call's compute wall time (0.0 on a
    hit) and ``windows`` the engine's window count when the call
    returned (0 on a hit).  ``store_info`` is the cache's provenance
    for the access: ``{"single_flight": "coalesced"}`` when this call
    was served by another thread's in-flight compute, ``{}``
    otherwise, so plain warm envelopes stay byte-identical.
    """

    key: str
    payload: dict | None
    result: Any
    hit: bool
    compute_seconds: float
    store_info: dict = field(default_factory=dict)
    windows: int = 0
    state: EngineState | None = None


def _round_trip_error(kind: str) -> ConfigurationError:
    return ConfigurationError(
        f"runner codec for kind {kind!r} cannot round-trip its result"
    )


#: A slice length, in windows (None: run to completion).
_WINDOW_SLICE = Optional(Count(minimum=1))


def run_cell(
    spec: RunSpec,
    store: ResultStore | None,
    *,
    resume: EngineState | None = None,
    window_slice: int | None = None,
    on_slice: Callable[[EngineState], Any] | None = None,
) -> RunOutcome:
    """Run one cell on its stepping engine: the only cell runner.

    Looks the cell up (``store`` None = the default cache), and on a
    miss builds the kind's engine, restores ``resume``, steps it,
    finishes it, encodes the result and writes the payload back.  A
    ``resume`` checkpoint marks the cell unfinished, so the lookup is
    skipped and the run continues from it.

    With no ``window_slice`` the cell runs to completion, and a cold
    default-cache cell is single-flighted: concurrent identical cells
    run one compute.  With a ``window_slice`` the engine steps that
    many windows at a time; at each boundary before the end
    ``on_slice`` receives the engine checkpoint, and a truthy return
    stops the run: the outcome then carries that checkpoint and no
    payload.

    The compute runs under a ``cell`` span and whatever progress label
    the caller set (a job sets ``<job-id>/<cell-key>``; a direct call
    sets none, so its engine publishes nothing).  The engine is only
    built on a miss, so warm reads never pay for its construction.
    A ``window_slice`` below 1 is refused before the lookup.
    """
    _WINDOW_SLICE.decode(window_slice, "window_slice", None, ConfigurationError)
    cache = default_cache() if store is None else None
    key = spec.key()
    if resume is None:
        entry = _lookup(spec.kind, key, store, cache)
        if entry is not None:
            _count_request(hit=True)
            return RunOutcome(key, entry[0], entry[1], True, 0.0, {})

    def compute() -> RunOutcome:
        started = time.perf_counter()
        runner = runner_for(spec.kind)
        with TRACER.span("cell", key=key, kind=spec.kind):
            engine = runner.make_engine(spec)
            if resume is not None:
                engine.restore(resume)
            if window_slice is None:
                result = engine.run_to_completion()
            else:
                while True:
                    engine.step_windows(window_slice)
                    if engine.done:
                        break
                    state = engine.checkpoint()
                    if on_slice is not None and on_slice(state):
                        seconds = time.perf_counter() - started
                        return RunOutcome(
                            key, None, None, False, seconds,
                            windows=engine.windows, state=state,
                        )
                result = engine.finish()
        seconds = time.perf_counter() - started
        METRICS.observe(
            "repro_cell_compute_seconds",
            "Cold-cell compute wall time by kind",
            seconds,
            kind=spec.kind,
        )
        payload = runner.encode(result)
        result = _decode(spec.kind, payload)
        if result is None:
            # A just-produced payload that won't decode is a codec bug;
            # fail at the source rather than handing back values that
            # would differ between cached and fresh (or serial and
            # parallel) calls.
            raise _round_trip_error(spec.kind)
        if cache is None:
            store.put(key, payload, meta=spec_meta(spec))
        else:
            if cache.disk is not None:
                cache.disk.put(key, payload, meta=spec_meta(spec))
            cache.remember(key, (payload, result))
        return RunOutcome(
            key, payload, result, False, seconds, windows=engine.windows
        )

    if cache is None or resume is not None or window_slice is not None:
        outcome = compute()
    else:
        outcome, coalesced = cache.coalesce(key, compute)
        if coalesced:
            outcome = RunOutcome(
                key, outcome.payload, outcome.result, True, 0.0,
                {"single_flight": "coalesced"},
            )
    if resume is None:
        _count_request(hit=outcome.hit)
    return outcome


def run(spec: RunSpec, store: ResultStore | None = None) -> Any:
    """Run (or recall) one spec through its registered runner.

    A cached payload short-circuits execution; a fresh run is encoded
    and written through the store for the next caller.
    """
    return run_cell(spec, store).result


def run_payload(
    spec: RunSpec, store: ResultStore | None = None
) -> tuple[dict, bool, float]:
    """Run (or recall) one spec, returning its *encoded* payload.

    Returns ``(payload, hit, compute_seconds)``.  Payloads are
    JSON-serializable, so they cross process boundaries and can be
    written into any :class:`ResultStore` unchanged.
    """
    outcome = run_cell(spec, store)
    return outcome.payload, outcome.hit, outcome.compute_seconds


def cached_outcome(spec: RunSpec, store: ResultStore | None) -> RunOutcome | None:
    """The cell's cached outcome (a hit), or None on a miss.

    The lookup of :func:`run_cell` without the compute, for a process
    pool that serves warm cells before it dispatches the rest.
    """
    cache = default_cache() if store is None else None
    key = spec.key()
    entry = _lookup(spec.kind, key, store, cache)
    return None if entry is None else RunOutcome(key, *entry, True, 0.0, {})


def memo_hit(key: str) -> bool:
    """Whether the default cache's memo holds ``key`` now; a hit counts
    one lookup transaction, as a warm :func:`run_cell` does.

    For a caller that answers a warm cell from what it kept of an
    earlier reply, without running the cell again.
    """
    if key not in default_cache().memo:
        return False
    _count_request(hit=True)
    return True


def adopt_outcome(
    spec: RunSpec, outcome: RunOutcome, store: ResultStore | None
) -> RunOutcome:
    """A cell run in another process, published in this one.

    ``outcome`` carries the payload and key but no result: the payload
    is decoded here, once, and remembered in the default cache's memo
    (the worker wrote this host's disk store itself) or put through the
    explicit ``store`` (the worker wrote a pickled copy of it).
    """
    key = outcome.key
    cache = default_cache() if store is None else None
    entry = None if cache is None else cache.memo.get(key)
    if entry is None:
        result = _decode(spec.kind, outcome.payload)
        if result is None:
            raise _round_trip_error(spec.kind)
        entry = (outcome.payload, result)
        if cache is not None:
            cache.remember(key, entry)
        else:
            store.put(key, outcome.payload, meta=spec_meta(spec))
    return replace(outcome, result=entry[1])


def sweep(
    spec_type: type,
    grid: Mapping[str, Sequence[Any]],
    **fixed: Any,
) -> list[Any]:
    """Expand a parameter grid into specs, row-major over ``grid`` order.

    ``sweep(Chapter4Spec, {"mix": ("W1", "W2"), "policy": ("ts", "acg")},
    cooling="AOHS_1.5")`` yields W1/ts, W1/acg, W2/ts, W2/acg — the
    first grid axis varies slowest, matching how the paper's tables
    iterate mixes in rows and policies in columns.
    """
    if not grid:
        raise ConfigurationError("sweep grid must name at least one axis")
    names = list(grid)
    for name in names:
        if name in fixed:
            raise ConfigurationError(f"axis {name!r} also given as a fixed field")
    return [
        spec_type(**fixed, **dict(zip(names, combo)))
        for combo in itertools.product(*(tuple(grid[name]) for name in names))
    ]


class Campaign:
    """A batch of run specs executed with dedup, caching, and parallelism.

    Results come back in spec order, and every result is decoded from
    its cache payload — the serial and process-pool paths therefore
    produce identical values.

    The campaign hands its deduplicated specs to a backend's
    ``run_cells`` (:mod:`repro.cluster`), which yields their outcomes in
    the order given.  With no explicit ``backend`` the campaign builds
    (and deterministically shuts down) its own: serial for
    ``jobs == 1``, a local process pool otherwise.  An explicit backend
    is *borrowed* — one process pool can be reused across many
    campaigns and is closed by its owner, normally a ``with`` block
    around the whole batch.
    """

    def __init__(
        self,
        specs: Iterable[RunSpec],
        *,
        jobs: int = 1,
        store: ResultStore | None = None,
        backend: "Any | None" = None,
    ) -> None:
        self.specs = list(specs)
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        #: The explicit store, or None for the default cache; pool
        #: workers then build their own instead of receiving a pickled
        #: copy of this process's memo.
        self.store = store
        #: Borrowed execution backend (None = build per run).
        self.backend = backend
        for spec in self.specs:
            runner_for(spec.kind)  # fail fast on unregistered kinds

    def __len__(self) -> int:
        return len(self.specs)

    def run(self) -> list[Any]:
        """Execute every spec and return results in spec order."""
        return [outcome.result for _, outcome in self.iter_outcomes()]

    def _default_backend(self, cells: int) -> Any:
        """The owned backend for one run: serial, or a process pool."""
        from repro.cluster.backends import LocalProcessBackend, SerialBackend

        if self.jobs == 1 or cells <= 1:
            return SerialBackend()
        return LocalProcessBackend(jobs=min(self.jobs, cells))

    def iter_outcomes(self) -> Iterator[tuple[RunSpec, RunOutcome]]:
        """Stream ``(spec, RunOutcome)`` in spec order.

        Cells are yielded as soon as they (and every earlier spec)
        complete, so a consumer can render or transmit per-cell results
        while later cells are still running — this backs the streaming
        ``ReproClient.run_campaign`` iterator.  ``compute_seconds`` is
        the cell's own execute wall time as measured where it ran (0.0
        on a cache hit).  A repeated (equal) spec is a hit on its repeat
        occurrences: the first one carries the compute, and is keyed once,
        where it runs.  Abandoning the iterator early cancels
        not-yet-started cells and shuts down the campaign-owned backend;
        a borrowed backend stays open for its owner to reuse or close.
        """
        unique = list(dict.fromkeys(self.specs))
        backend = self.backend
        owned = backend is None
        if owned:
            backend = self._default_backend(len(unique))
        outcomes = backend.run_cells(unique, self.store)
        try:
            emitted: dict[RunSpec, RunOutcome] = {}
            for spec in self.specs:
                first = emitted.get(spec)
                if first is None:
                    emitted[spec] = first = next(outcomes)
                    yield spec, first
                else:
                    yield spec, RunOutcome(
                        first.key, first.payload, first.result, True, 0.0, {}
                    )
        finally:
            outcomes.close()
            if owned:
                backend.close()
