"""The :class:`ReproClient` façade — the stable programmatic surface.

A client wraps one :class:`~repro.campaign.ResultStore` (the process's
default result cache unless told otherwise) and turns typed request
objects into versioned :class:`~repro.api.envelope.ResultEnvelope`
records.  Every run is a request's ``cells()`` run through the campaign
engine, so client calls, CLI invocations, jobs and HTTP requests all
share one cache:

    from repro.api import ReproClient, SimulateRequest

    client = ReproClient()
    envelope = client.simulate(SimulateRequest(mix="W1", policy="acg"))
    print(envelope.metrics["peak_amb_c"], envelope.provenance.cache)

``run_campaign`` is an iterator: it yields each cell's envelope as
soon as it (and every earlier cell) completes, so a consumer can
stream a large grid without holding it in memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from repro.analysis.campaigns import CAMPAIGN_GRIDS
from repro.api.envelope import Provenance, ResultEnvelope
from repro.api.requests import (
    CampaignRequest,
    CompareRequest,
    ScenarioRequest,
    ServerRequest,
    SimulateRequest,
)
from repro.campaign import (
    Campaign,
    ResultStore,
    RunOutcome,
    RunSpec,
    run_cell,
)
from repro.engine.codec import Count
from repro.engine.state import CheckpointFile
from repro.errors import ConfigurationError
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
            cache_key=outcome.key,
            compute_seconds=round(outcome.compute_seconds, 6),
            single_flight=outcome.store_info.get("single_flight"),
        ),
    )


class ReproClient:
    """Typed façade over the requests' cells and the campaign engine.

    Multi-cell runs execute serially, or on a process pool of the
    request's ``jobs`` workers that the run starts and closes.
    """

    def __init__(self, store: ResultStore | None = None) -> None:
        #: The explicit store, or None for the default cache; pool
        #: workers then build their own instead of receiving a pickled
        #: copy of this process's memo.
        self.store = store

    # -- single-cell runs --------------------------------------------------

    def simulate(self, request: SimulateRequest | None = None, **axes: Any) -> ResultEnvelope:
        """Run one Chapter 4 simulation cell."""
        request = SimulateRequest(**axes) if request is None else request
        return self._run_cell(*request.cells()[0])

    def server(self, request: ServerRequest | None = None, **axes: Any) -> ResultEnvelope:
        """Run one Chapter 5 server measurement cell."""
        request = ServerRequest(**axes) if request is None else request
        return self._run_cell(*request.cells()[0])

    # -- multi-cell runs ---------------------------------------------------

    def compare(self, request: CompareRequest | None = None, **axes: Any) -> list[ResultEnvelope]:
        """Every Chapter 4 scheme on one mix; baseline envelope first."""
        request = CompareRequest(**axes) if request is None else request
        return [self._run_cell(spec, echo) for spec, echo in request.cells()]

    def run_campaign(
        self, request: CampaignRequest | ScenarioRequest
    ) -> Iterator[ResultEnvelope]:
        """Stream a named grid's (or named scenarios') per-cell
        envelopes as they complete.

        Cells arrive in deterministic sweep order; with ``jobs > 1``
        they are computed by a process pool and yielded as the ordered
        prefix completes.  A bad request fails here, before any cell.
        """
        cells = request.cells()
        outcomes = self._campaign(cells, request.jobs).iter_outcomes()
        return (
            cell_envelope(spec, outcome, echo)
            for (spec, outcome), (_, echo) in zip(outcomes, cells)
        )

    def campaign_table(
        self, request: CampaignRequest | ScenarioRequest
    ) -> tuple[list[str], list[list[Any]]]:
        """A named grid's (or named scenarios') (headers, rows) table —
        the CLI's view."""
        grid = CAMPAIGN_GRIDS[request.grid]
        campaign = self._campaign(request.cells(), request.jobs)
        rows = [
            grid.row(spec, outcome.result)
            for spec, outcome in campaign.iter_outcomes()
        ]
        return list(grid.headers), rows

    # -- resumable runs ----------------------------------------------------

    def run_resumable(
        self,
        request: SimulateRequest | ServerRequest,
        *,
        checkpoint_dir: str | Path,
        checkpoint_every: int = 2000,
        resume: bool = False,
    ) -> ResultEnvelope:
        """Run one cell with periodic on-disk checkpoints.

        The cell runs in slices of ``checkpoint_every`` DTM windows,
        and at each slice boundary its engine state is published
        atomically under ``checkpoint_dir`` (named by the spec's cache
        key): the document a job keeps in its record's ``cell_states``,
        so either restores into the other.  The file is removed once
        the payload comes back.  With ``resume=True`` an existing
        checkpoint is restored first, so only the remaining windows
        execute — the result is bit-identical to an uninterrupted run.
        The finished payload is written through this client's store
        like any other run; an already-cached cell short-circuits
        (unless resuming from a checkpoint) exactly like
        :meth:`simulate`.
        """
        Count(minimum=1).decode(
            checkpoint_every, "checkpoint_every", self, ConfigurationError
        )
        ((spec, echo),) = request.cells()
        checkpoint = CheckpointFile(
            Path(checkpoint_dir) / f"{spec.key()}.checkpoint.json"
        )
        state = checkpoint.load() if resume and checkpoint.exists() else None
        outcome = run_cell(
            spec, self.store, resume=state, window_slice=checkpoint_every,
            on_slice=checkpoint.write,
        )
        checkpoint.remove()
        return cell_envelope(spec, outcome, echo)

    # -- scenario library --------------------------------------------------

    def list_scenarios(self, kind: str | None = None, tag: str | None = None) -> list[dict]:
        """Descriptors of the scenario library."""
        return [
            {
                "name": entry.spec.scenario,
                "kind": entry.spec.kind,
                "mix": entry.spec.mix,
                "policy": entry.spec.policy,
                "tags": list(entry.tags),
                "description": entry.description,
            }
            for entry in iter_scenarios(kind=kind, tag=tag)
        ]

    # -- internals ---------------------------------------------------------

    def _run_cell(self, spec: RunSpec, echo: dict) -> ResultEnvelope:
        return cell_envelope(spec, run_cell(spec, self.store), echo)

    def _campaign(self, cells: list, jobs: int) -> Campaign:
        return Campaign([spec for spec, _ in cells], jobs=jobs, store=self.store)
