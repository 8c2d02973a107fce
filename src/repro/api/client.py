"""The :class:`ReproClient` façade — the stable programmatic surface.

A client wraps one :class:`~repro.campaign.ResultStore` (the default
shared memory+disk stack unless told otherwise) and turns typed request
objects into versioned :class:`~repro.api.envelope.ResultEnvelope`
records.  Every run flows through the scenario and campaign engines, so
client calls, CLI invocations, and HTTP requests all share one cache:

    from repro.api import ReproClient, SimulateRequest

    client = ReproClient()
    envelope = client.simulate(SimulateRequest(mix="W1", policy="acg"))
    print(envelope.metrics["peak_amb_c"], envelope.provenance.cache)

``run_campaign``/``run_scenarios`` are iterators: they yield each
cell's envelope as soon as it (and every earlier cell) completes, so a
consumer can stream a large grid without holding it in memory.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterator

from repro.api.envelope import Provenance, ResultEnvelope
from repro.api.requests import (
    CampaignRequest,
    CompareRequest,
    ScenarioRequest,
    ServerRequest,
    SimulateRequest,
    request_to_dict,
)
from repro.campaign import (
    Campaign,
    ResultStore,
    RunSpec,
    cached_payload,
    default_store,
    engine_for_spec,
    run_outcome,
    run_payload,
    runner_for,
    spec_meta,
)
from repro.engine import CheckpointFile, CheckpointObserver, EngineState
from repro.engine.progress import PROGRESS
from repro.obs.trace import TRACER
from repro.scenarios import iter_scenarios


def metrics_from_result(result: Any) -> dict:
    """A result object's scalar metrics (trace excluded), JSON-ready.

    Includes the derived power averages so envelope consumers never
    need the result classes themselves.
    """
    metrics = {
        key: value for key, value in result.__dict__.items() if key != "trace"
    }
    metrics["average_cpu_power_w"] = result.average_cpu_power_w
    if hasattr(result, "average_memory_power_w"):
        metrics["average_memory_power_w"] = result.average_memory_power_w
    return metrics


def _cell_echo(spec: RunSpec) -> dict:
    """The request echo for one campaign/scenario cell.

    Cells echo the fully resolved run spec under type ``"cell"``
    (library scenarios carry knobs no top-level request can express),
    so unlike simulate/server/compare echoes they are *descriptive*,
    not replayable through ``request_from_dict``.
    """
    return {"type": "cell", "kind": spec.kind, **asdict(spec)}


class ReproClient:
    """Typed façade over the scenario + campaign engines.

    ``backend`` selects where multi-cell runs execute (an
    :class:`~repro.cluster.ExecutionBackend` — e.g. a reusable process
    pool or an HTTP worker fleet).  The backend is borrowed, not owned:
    the caller closes it (normally with a ``with`` block) after its
    last campaign, so one fleet serves many client calls.  ``None``
    keeps the classic behavior — serial, or a per-run pool when the
    request's ``jobs`` asks for one.
    """

    def __init__(
        self, store: ResultStore | None = None, *, backend: Any | None = None
    ) -> None:
        #: None is a meaningful sentinel ("the default stack"), kept as
        #: such all the way into the campaign engine: pool workers then
        #: rebuild their own default store instead of receiving a
        #: pickled copy of the process-wide memo.
        self._store = store
        self._backend = backend

    @property
    def store(self) -> ResultStore:
        """The result store backing this client's runs."""
        return default_store() if self._store is None else self._store

    # -- single-cell runs --------------------------------------------------

    def simulate(self, request: SimulateRequest | None = None, **axes: Any) -> ResultEnvelope:
        """Run one Chapter 4 simulation cell."""
        request = SimulateRequest(**axes) if request is None else request
        return self._run_cell(request.spec(), request_to_dict(request))

    def server(self, request: ServerRequest | None = None, **axes: Any) -> ResultEnvelope:
        """Run one Chapter 5 server measurement cell."""
        request = ServerRequest(**axes) if request is None else request
        return self._run_cell(request.spec(), request_to_dict(request))

    # -- multi-cell runs ---------------------------------------------------

    def compare(self, request: CompareRequest | None = None, **axes: Any) -> list[ResultEnvelope]:
        """Every Chapter 4 scheme on one mix; baseline envelope first.

        Each envelope echoes the equivalent per-policy simulate request,
        so a compare is exactly N cache-shared simulate calls.
        """
        request = CompareRequest(**axes) if request is None else request
        return [
            self._run_cell(cell.spec(), request_to_dict(cell))
            for cell in request.cell_requests()
        ]

    def run_campaign(self, request: CampaignRequest) -> Iterator[ResultEnvelope]:
        """Stream a named grid's per-cell envelopes as they complete.

        Cells arrive in deterministic sweep order; with ``jobs > 1``
        they are computed by a process pool and yielded as the ordered
        prefix completes.
        """
        _, specs = request.cells()
        return self._iter_cells(specs, request.jobs)

    def campaign_table(self, request: CampaignRequest) -> tuple[list[str], list[list[Any]]]:
        """A named grid's (headers, rows) table — the CLI's view."""
        return self._table(request)

    def run_scenarios(self, request: ScenarioRequest) -> Iterator[ResultEnvelope]:
        """Stream registered scenarios' envelopes as they complete."""
        _, specs = request.cells()
        return self._iter_cells(specs, request.jobs)

    def scenarios_table(self, request: ScenarioRequest) -> tuple[list[str], list[list[Any]]]:
        """Scenario runs as a (headers, rows) table — the CLI's view."""
        return self._table(request)

    # -- worker duty -------------------------------------------------------

    def run_cell_payload(self, spec: RunSpec) -> tuple[dict, bool, float]:
        """Run (or recall) one cell, returning its encoded payload.

        The ``/v1/worker/run`` route's execution path: the worker
        computes against *this client's* store (the same one every
        other route reads), returning ``(payload, hit, seconds)`` for
        the coordinator to merge into its own store.
        """
        with TRACER.span("worker.run", key=spec.key(), kind=spec.kind):
            return run_payload(spec, self._store)

    def run_cell_slice(
        self,
        spec: RunSpec,
        window_slice: int,
        resume_state: dict | None = None,
    ) -> dict:
        """Run at most ``window_slice`` DTM windows of one cell.

        The time-sliced ``/v1/worker/run`` path.  A cached cell is
        served as a hit; otherwise the cell's stepping engine runs one
        slice — resumed from ``resume_state`` (a serialized
        :class:`~repro.engine.EngineState`) when the coordinator has a
        checkpoint from an earlier slice.  Returns the wire-shaped cell
        result: either a completed entry (``payload`` + provenance) or
        a partial entry (``partial: true`` + the new checkpoint
        ``state``), both carrying ``windows_done``/``resumed_from`` so
        coordinators can prove a resume was warm.  A cache hit reports
        both as 0 — no windows executed; ``cache == "hit"`` is the
        discriminator.
        """
        key = spec.key()
        entry: dict[str, Any] = {"key": key, "kind": spec.kind}
        payload = cached_payload(spec, self._store)
        if payload is not None:
            entry.update(
                payload=payload,
                cache="hit",
                compute_seconds=0.0,
                windows_done=0,
                resumed_from=0,
            )
            return entry
        engine = engine_for_spec(spec)
        resumed_from = 0
        started = time.perf_counter()
        with TRACER.span(
            "worker.slice", key=key, kind=spec.kind, slice=window_slice
        ), PROGRESS.track(key):
            if resume_state is not None:
                engine.restore(EngineState.from_dict(resume_state))
                resumed_from = engine.windows
            engine.step_windows(window_slice)
            seconds = time.perf_counter() - started
            entry.update(
                windows_done=engine.windows,
                resumed_from=resumed_from,
                compute_seconds=round(seconds, 6),
            )
            if not engine.done:
                entry.update(partial=True, state=engine.checkpoint().to_dict())
                return entry
            result = engine.finish()
        payload = runner_for(spec.kind).encode(result)
        store = default_store() if self._store is None else self._store
        store.put(key, payload, meta=spec_meta(spec))
        entry.update(payload=payload, cache="miss")
        return entry

    # -- jobs façade -------------------------------------------------------

    def submit_job(
        self,
        url: str,
        request: Any,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> dict:
        """Submit a typed request to a jobs-enabled service at ``url``.

        ``request`` is any API request object (or its dict form).
        Returns the job document; raise-or-retry behavior lives in
        :class:`~repro.jobs.JobsClient`, which this wraps.
        """
        from repro.jobs.client import JobsClient

        body = request if isinstance(request, dict) else request_to_dict(request)
        return JobsClient(url).submit(body, tenant=tenant, priority=priority)

    def wait_job(
        self,
        url: str,
        job_id: str,
        *,
        timeout_s: float = 300.0,
        poll_s: float = 0.25,
    ) -> dict:
        """Poll a submitted job until terminal; returns its result document."""
        from repro.jobs.client import JobsClient

        return JobsClient(url).wait(job_id, timeout_s=timeout_s, poll_s=poll_s)

    # -- resumable runs ----------------------------------------------------

    def simulate_resumable(
        self,
        request: SimulateRequest,
        *,
        checkpoint_dir: str | Path,
        checkpoint_every: int = 2000,
        resume: bool = False,
    ) -> ResultEnvelope:
        """Run one Chapter 4 cell with periodic on-disk checkpoints.

        The run writes an atomic checkpoint every ``checkpoint_every``
        DTM windows under ``checkpoint_dir`` (named by the spec's cache
        key) and removes it on completion.  With ``resume=True`` an
        existing checkpoint is restored first, so only the remaining
        windows execute — the result is bit-identical to an
        uninterrupted run.  The finished payload is written through
        this client's store like any other run; an already-cached cell
        short-circuits (unless resuming) exactly like :meth:`simulate`.
        """
        return self._run_resumable(
            request.spec(), request_to_dict(request),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )

    def server_resumable(
        self,
        request: ServerRequest,
        *,
        checkpoint_dir: str | Path,
        checkpoint_every: int = 2000,
        resume: bool = False,
    ) -> ResultEnvelope:
        """Run one Chapter 5 cell with periodic on-disk checkpoints
        (see :meth:`simulate_resumable`)."""
        return self._run_resumable(
            request.spec(), request_to_dict(request),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )

    def _run_resumable(
        self,
        spec: RunSpec,
        echo: dict,
        *,
        checkpoint_dir: str | Path,
        checkpoint_every: int,
        resume: bool,
    ) -> ResultEnvelope:
        key = spec.key()
        checkpoint = CheckpointFile(
            Path(checkpoint_dir) / f"{key}.checkpoint.json"
        )
        if not resume:
            payload = cached_payload(spec, self._store)
            if payload is not None:
                result = runner_for(spec.kind).decode(payload)
                return self._envelope(spec, result, True, 0.0, echo)
        observer = CheckpointObserver(checkpoint, every_windows=checkpoint_every)
        engine = engine_for_spec(spec, extra_observers=(observer,))
        if resume and checkpoint.exists():
            engine.restore(checkpoint.load())
        started = time.perf_counter()
        with PROGRESS.track(key):
            result = engine.run_to_completion()
        seconds = time.perf_counter() - started
        runner = runner_for(spec.kind)
        payload = runner.encode(result)
        store = default_store() if self._store is None else self._store
        store.put(key, payload, meta=spec_meta(spec))
        # Hand back the decode of the stored payload — the same shape a
        # cached or campaign-computed call returns.
        return self._envelope(
            spec, runner.decode(payload), False, seconds, echo
        )

    # -- scenario library --------------------------------------------------

    def list_scenarios(self, kind: str | None = None, tag: str | None = None) -> list[dict]:
        """Descriptors of the registered scenario library."""
        return [
            {
                "name": scenario.name,
                "kind": scenario.kind,
                "mix": scenario.mix,
                "policy": scenario.policy,
                "tags": list(scenario.tags),
                "description": scenario.description,
            }
            for scenario in iter_scenarios(kind=kind, tag=tag)
        ]

    # -- internals ---------------------------------------------------------

    def _run_cell(self, spec: RunSpec, echo: dict) -> ResultEnvelope:
        outcome = run_outcome(spec, store=self._store)
        return self._envelope(
            spec, outcome.result, outcome.hit, outcome.compute_seconds,
            echo, outcome.store_info,
        )

    def _table(
        self, request: CampaignRequest | ScenarioRequest
    ) -> tuple[list[str], list[list[Any]]]:
        grid, specs = request.cells()
        campaign = Campaign(
            specs, jobs=request.jobs, store=self._store, backend=self._backend
        )
        rows = [
            grid.row(spec, result)
            for spec, result, _, _ in campaign.iter_run()
        ]
        return list(grid.headers), rows

    def _iter_cells(self, specs: list[RunSpec], jobs: int) -> Iterator[ResultEnvelope]:
        campaign = Campaign(
            specs, jobs=jobs, store=self._store, backend=self._backend
        )
        for spec, outcome in campaign.iter_outcomes():
            yield self._envelope(
                spec, outcome.result, outcome.hit, outcome.compute_seconds,
                _cell_echo(spec), outcome.store_info,
            )

    def _envelope(
        self,
        spec: RunSpec,
        result: Any,
        hit: bool,
        elapsed: float,
        echo: dict,
        store_info: dict | None = None,
    ) -> ResultEnvelope:
        store_info = store_info or {}
        return ResultEnvelope(
            kind=spec.kind,
            scenario=getattr(spec, "scenario", None),
            request=echo,
            metrics=metrics_from_result(result),
            provenance=Provenance(
                cache="hit" if hit else "miss",
                cache_key=spec.key(),
                compute_seconds=round(elapsed, 6),
                single_flight=store_info.get("single_flight"),
            ),
        )
