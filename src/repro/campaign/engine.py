"""Campaign execution: single runs, grid expansion, pluggable backends.

:func:`run_cell` is the one cell runner: every cell, whole or
time-sliced, fresh or resumed, runs through it on its stepping engine,
and :func:`run` is the plain entry point over it.  :func:`sweep`
expands a declarative parameter grid into specs.  :class:`Campaign`
executes a list of specs — deduplicated by cache key, dispatched
through an :class:`~repro.cluster.ExecutionBackend` (in-process
serial, local process pool, or an HTTP worker fleet) — and returns
results in the order the specs were given, so tables built from a
campaign are byte-identical no matter where the cells ran.

Every returned result is the decode of its cache payload (fresh runs
are round-tripped through the codec before returning), so fresh and
cached calls yield identical shapes.  Decoded objects are memoized per
process by spec key — keys are content hashes of the spec, so a key
can only ever name one result.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.campaign.spec import RunSpec, runner_for, spec_meta
from repro.campaign.stores import GLOBAL_MEMORY, ResultStore, default_store
from repro.engine.progress import PROGRESS
from repro.engine.state import EngineState
from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

#: Per-process memo of decoded results, so repeated cache hits don't
#: re-decode payloads (temperature traces rebuild point by point).
_DECODE_MEMO: dict[str, Any] = {}


def _decode(kind: str, payload: dict) -> Any:
    runner = runner_for(kind)
    try:
        return runner.decode(payload)
    except (KeyError, TypeError, ValueError):
        # Stale payload from an older schema: treat as a cache miss.
        return None


def _decode_cached(kind: str, key: str, payload: dict) -> Any:
    result = _DECODE_MEMO.get(key)
    if result is None:
        result = _decode(kind, payload)
        if result is not None:
            _DECODE_MEMO[key] = result
    return result


@dataclass(frozen=True)
class RunOutcome:
    """Everything one cell run reports.

    A finished cell carries its ``payload`` and decoded ``result``; a
    time-sliced cell stopped before its end carries neither (both
    None) but the engine checkpoint ``state`` to continue from.
    ``compute_seconds`` is this call's compute wall time (0.0 on a
    hit) and ``windows`` the engine's window count when the call
    returned (0 on a hit).  ``store_info`` is the store's provenance
    for the access: ``{"single_flight": "coalesced"}`` when this call
    was served by another thread's in-flight compute, ``{}``
    otherwise, so plain warm envelopes stay byte-identical.
    """

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


def run_cell(
    spec: RunSpec,
    store: ResultStore | None,
    *,
    resume: EngineState | None = None,
    window_slice: int | None = None,
    observers: tuple = (),
    on_slice: Callable[[EngineState], Any] | None = None,
) -> RunOutcome:
    """Run one cell on its stepping engine: the only cell runner.

    Looks the cell up in ``store`` (None = the default stack), and on a
    miss builds the kind's engine with ``observers`` attached, restores
    ``resume``, steps it, finishes it, encodes the result and writes
    the payload back.  A ``resume`` checkpoint marks the cell
    unfinished, so the lookup is skipped and the run continues from it.

    With no ``window_slice`` the cell runs to completion, and without a
    ``resume`` the lookup-then-compute goes through the store's
    ``get_or_compute`` transaction, so a single-flight store coalesces
    concurrent identical cells.  With a ``window_slice`` the engine
    steps that many windows at a time; at each boundary before the end
    ``on_slice`` receives the engine checkpoint, and a truthy return
    stops the run: the outcome then carries that checkpoint and no
    payload.

    The compute runs under a ``cell`` span and the caller's progress
    label (the cache key when the caller set none).  The engine is only
    built on a miss, so warm reads never pay for its construction.
    """
    store = default_store() if store is None else store
    runner = runner_for(spec.kind)
    key = spec.key()
    engine: Any = None
    stopped: EngineState | None = None

    def validate(payload: dict) -> bool:
        # A payload written under an older result schema won't decode;
        # treat it as a miss and recompute.
        return _decode_cached(spec.kind, key, payload) is not None

    def compute() -> tuple[dict | None, dict]:
        nonlocal engine, stopped
        started = time.perf_counter()
        label = PROGRESS.current_label() or key
        with TRACER.span("cell", key=key, kind=spec.kind):
            with PROGRESS.track(label):
                engine = runner.make_engine(
                    spec, extra_observers=tuple(observers)
                )
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
                            stopped = state
                            seconds = time.perf_counter() - started
                            return None, {"compute_seconds": seconds}
                    result = engine.finish()
        seconds = time.perf_counter() - started
        METRICS.observe(
            "repro_cell_compute_seconds",
            "Cold-cell compute wall time by kind",
            seconds,
            kind=spec.kind,
        )
        return runner.encode(result), {"compute_seconds": seconds}

    meta = spec_meta(spec)
    if resume is None and window_slice is None:
        payload, hit, info = store.get_or_compute(
            key, compute, meta=meta, validate=validate
        )
    else:
        payload = None if resume is not None else cached_payload(spec, store)
        hit, info = payload is not None, {}
        if not hit:
            payload, info = compute()
            if payload is not None:
                store.put(key, payload, meta=meta)
    info = dict(info)
    seconds = float(info.pop("compute_seconds", 0.0))
    if payload is None:
        return RunOutcome(
            None, None, False, seconds, info,
            windows=engine.windows, state=stopped,
        )
    if hit:
        result = _decode_cached(spec.kind, key, payload)
        if result is None:
            # Only reachable for a coalesced payload (validated hits
            # passed ``validate`` above): the leader just produced a
            # payload that won't decode, which is a codec bug.
            raise _round_trip_error(spec.kind)
        return RunOutcome(payload, result, True, 0.0, info)
    result = _decode(spec.kind, payload)
    if result is None:
        # A just-produced payload that won't decode is a codec bug;
        # fail at the source rather than handing back values that
        # would differ between cached and fresh (or serial and
        # parallel) calls.
        raise _round_trip_error(spec.kind)
    _DECODE_MEMO[key] = result
    return RunOutcome(
        payload, result, False, seconds, info, windows=engine.windows
    )


def cached_payload(spec: RunSpec, store: ResultStore | None = None) -> dict | None:
    """The spec's stored payload, or None when absent or stale-schema.

    The decodability check mirrors :func:`run_cell`'s: a payload
    written under an older result schema reads as a miss, so callers
    recompute instead of forwarding undecodable bytes.
    """
    store = default_store() if store is None else store
    key = spec.key()
    payload = store.get(key)
    if payload is None:
        return None
    if _decode_cached(spec.kind, key, payload) is None:
        return None
    return payload


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

    Returns ``(payload, hit, compute_seconds)``.  This is the form
    execution backends and cluster workers traffic in: payloads are
    JSON-serializable, so they cross process and HTTP boundaries and
    can be written into any :class:`ResultStore` unchanged.
    """
    outcome = run_cell(spec, store)
    return outcome.payload, outcome.hit, outcome.compute_seconds


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

    Results come back in spec order regardless of completion order, and
    every result is decoded from its cache payload — the serial,
    process-pool, and HTTP-fleet paths therefore produce identical
    values.

    Execution is delegated to an
    :class:`~repro.cluster.ExecutionBackend`.  With no explicit
    ``backend`` the campaign builds (and deterministically shuts down)
    its own: serial for ``jobs == 1``, a local process pool otherwise.
    An explicit backend is *borrowed* — it can be reused across many
    campaigns (one process pool, one worker fleet) and is closed by its
    owner, normally a ``with`` block around the whole batch.
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
        #: None means "the default stack" — kept distinct from the
        #: resolved store so pool workers can rebuild their own default
        #: instead of receiving a pickled copy of the shared memo.
        self._explicit_store = store
        self.store = default_store() if store is None else store
        #: Borrowed execution backend (None = build per run).
        self.backend = backend
        for spec in self.specs:
            runner_for(spec.kind)  # fail fast on unregistered kinds

    def __len__(self) -> int:
        return len(self.specs)

    def run(self) -> list[Any]:
        """Execute every spec and return results in spec order."""
        return [result for _, result, _, _ in self.iter_run()]

    def _default_backend(self, cells: int) -> Any:
        """The owned backend for one run: serial, or a process pool."""
        from repro.cluster.backends import LocalProcessBackend, SerialBackend

        if self.jobs == 1 or cells <= 1:
            return SerialBackend()
        return LocalProcessBackend(jobs=min(self.jobs, cells))

    def _backfill_store(self, backend: Any) -> ResultStore | None:
        """Where the coordinator re-publishes payloads it received.

        - in-process backends wrote through the campaign store already;
        - pool workers on this host share the default disk layer, so
          only the process-wide memory memo needs the payload;
        - remote (HTTP) workers share nothing — their payloads are
          written through the campaign's full store, which is what
          makes a distributed run warm the same cache a local run
          reads;
        - an explicit store always gets a full write-through.
        """
        if backend.in_process:
            return None
        if self._explicit_store is not None:
            return self.store
        return GLOBAL_MEMORY if backend.shares_disk else self.store

    def iter_run(self) -> Iterator[tuple[RunSpec, Any, bool, float]]:
        """Stream ``(spec, result, cache_hit, compute_seconds)`` in spec order.

        Cells are yielded as soon as they (and every earlier spec)
        complete, so a consumer can render or transmit per-cell results
        while later cells are still running — this backs the streaming
        ``ReproClient.run_campaign`` iterator.  Order stays the spec
        order, so collecting the iterator reproduces :meth:`run`
        byte-for-byte no matter how many workers ran it.

        ``compute_seconds`` is the cell's own execute wall time as
        measured where it ran (0.0 on a cache hit), so parallel cells
        report true per-cell cost.  A duplicate spec is a hit on its
        repeat occurrences: the first one carries the compute.
        Abandoning the iterator early cancels not-yet-started cells and
        shuts down the campaign-owned backend; a borrowed backend stays
        open for its owner to reuse or close.
        """
        for spec, outcome in self.iter_outcomes():
            yield spec, outcome.result, outcome.hit, outcome.compute_seconds

    def iter_outcomes(self) -> Iterator[tuple[RunSpec, "RunOutcome"]]:
        """Stream ``(spec, RunOutcome)`` in spec order.

        Like :meth:`iter_run` but carrying the full provenance,
        including the store's single-flight info for each cell (``{}``
        for warm hits and duplicate-spec repeats).
        """
        unique: dict[str, RunSpec] = {}
        for spec in self.specs:
            unique.setdefault(spec.key(), spec)
        #: key -> spec for backfill metadata, surviving warm-serve
        #: deletions from ``unique``.
        spec_of = dict(unique)
        seen: dict[str, tuple[dict, bool, float, dict]] = {}
        backend = self.backend
        owned = backend is None
        if owned:
            backend = self._default_backend(len(unique))
        if not backend.in_process:
            # Serve cells the campaign's own store already holds before
            # dispatching anything: a warm local cache must not make a
            # remote fleet (or a fresh pool) recompute the grid.
            for key, spec in list(unique.items()):
                payload = self.store.get(key)
                if payload is None:
                    continue
                if _decode_cached(spec.kind, key, payload) is None:
                    continue  # stale-schema payload: recompute
                seen[key] = (payload, True, 0.0, {})
                del unique[key]
        backfill = self._backfill_store(backend)
        try:
            backend.submit_cells(
                list(unique.items()), store=self._explicit_store
            )
            results = backend.iter_results()
            emitted: dict[str, dict] = {}
            for spec in self.specs:
                key = spec.key()
                if key in emitted:
                    yield spec, RunOutcome(
                        emitted[key], self._decoded(spec, emitted[key]),
                        True, 0.0, {},
                    )
                    continue
                while key not in seen:
                    try:
                        done_key, payload, hit, seconds, info = next(results)
                    except StopIteration:
                        raise ConfigurationError(
                            f"execution backend "
                            f"{type(backend).__name__} finished without "
                            f"delivering cell {key}"
                        ) from None
                    seen[done_key] = (payload, hit, seconds, info)
                    if backfill is not None:
                        done_spec = spec_of.get(done_key)
                        backfill.put(
                            done_key, payload,
                            meta=(
                                spec_meta(done_spec)
                                if done_spec is not None else None
                            ),
                        )
                payload, hit, seconds, info = seen.pop(key)
                emitted[key] = payload
                yield spec, RunOutcome(
                    payload, self._decoded(spec, payload), hit, seconds,
                    dict(info),
                )
        finally:
            if owned:
                backend.close()

    def _decoded(self, spec: RunSpec, payload: dict) -> Any:
        result = _decode_cached(spec.kind, spec.key(), payload)
        if result is None:
            raise _round_trip_error(spec.kind)
        return result
