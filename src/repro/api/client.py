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
    RunOutcome,
    RunSpec,
    default_store,
    run_cell,
)
from repro.engine import CheckpointFile, CheckpointObserver, EngineState
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


def cell_envelope(
    spec: RunSpec, outcome: RunOutcome, echo: dict
) -> ResultEnvelope:
    """The versioned envelope of one finished cell run.

    The one place a cell's ``ResultEnvelope`` and ``Provenance`` are
    built, so client calls and job results carry identical bytes.
    """
    return ResultEnvelope(
        kind=spec.kind,
        scenario=getattr(spec, "scenario", None),
        request=echo,
        metrics=metrics_from_result(outcome.result),
        provenance=Provenance(
            cache="hit" if outcome.hit else "miss",
            cache_key=spec.key(),
            compute_seconds=round(outcome.compute_seconds, 6),
            single_flight=outcome.store_info.get("single_flight"),
        ),
    )


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

    def worker_run(
        self,
        spec: RunSpec,
        window_slice: int | None = None,
        resume_state: dict | None = None,
    ) -> dict:
        """One ``/v1/worker/run`` cell result, computed against *this
        client's* store (the same one every other route reads).

        With no ``window_slice`` the cell runs (or is recalled) whole:
        the entry carries its ``payload`` with the hit/compute-seconds
        provenance a local run records, for the coordinator to merge
        into its own store.  With one, at most ``window_slice`` DTM
        windows run — resumed from ``resume_state`` (a serialized
        :class:`~repro.engine.EngineState`) when the coordinator has a
        checkpoint from an earlier slice, otherwise served as a hit
        when cached.  The entry is then either completed (``payload``
        + provenance) or partial (``partial: true`` + the new
        checkpoint ``state``), both carrying
        ``windows_done``/``resumed_from`` so coordinators can prove a
        resume was warm.  A cache hit reports both as 0 — no windows
        executed; ``cache == "hit"`` is the discriminator.
        """
        key = spec.key()
        entry: dict[str, Any] = {"key": key, "kind": spec.kind}
        if window_slice is None:
            with TRACER.span("worker.run", key=key, kind=spec.kind):
                outcome = run_cell(spec, self._store)
        else:
            resume = (
                None if resume_state is None
                else EngineState.from_dict(resume_state)
            )
            with TRACER.span(
                "worker.slice", key=key, kind=spec.kind, slice=window_slice
            ):
                outcome = run_cell(
                    spec, self._store, resume=resume,
                    window_slice=window_slice, on_slice=lambda state: True,
                )
            entry.update(
                windows_done=outcome.windows,
                resumed_from=0 if resume is None else resume.windows,
            )
        entry["compute_seconds"] = round(outcome.compute_seconds, 6)
        if outcome.payload is None:
            entry.update(partial=True, state=outcome.state.to_dict())
        else:
            entry.update(
                payload=outcome.payload,
                cache="hit" if outcome.hit else "miss",
            )
        return entry

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
        short-circuits (unless resuming from a checkpoint) exactly like
        :meth:`simulate`.
        """
        return self._run_resumable(
            request, checkpoint_dir, checkpoint_every, resume
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
            request, checkpoint_dir, checkpoint_every, resume
        )

    def _run_resumable(
        self,
        request: SimulateRequest | ServerRequest,
        checkpoint_dir: str | Path,
        checkpoint_every: int,
        resume: bool,
    ) -> ResultEnvelope:
        spec = request.spec()
        checkpoint = CheckpointFile(
            Path(checkpoint_dir) / f"{spec.key()}.checkpoint.json"
        )
        observer = CheckpointObserver(checkpoint, every_windows=checkpoint_every)
        state = checkpoint.load() if resume and checkpoint.exists() else None
        outcome = run_cell(
            spec, self._store, resume=state, observers=(observer,)
        )
        return cell_envelope(spec, outcome, request_to_dict(request))

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
        return cell_envelope(spec, run_cell(spec, self._store), echo)

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
            yield cell_envelope(spec, outcome, _cell_echo(spec))
