"""Generic experiment-campaign engine.

``run_cell`` runs any registered spec's cell on its stepping engine
with write-through caching (``run(spec)`` is its plain view);
``sweep()`` expands declarative parameter grids; ``Campaign`` runs a
batch in parallel with deterministic result order; the
default cache is one process memo of decoded cells over the atomic
on-disk JSON store, and an explicit ``ResultStore`` (memory, disk,
null) replaces it.

The chapter-specific runners live in :mod:`repro.analysis.specs`;
this package knows nothing about thermal simulation — only how to
execute, cache, and order runs.
"""

from repro.campaign.engine import (
    Campaign,
    RunOutcome,
    run,
    run_cell,
    run_payload,
    sweep,
)
from repro.campaign.spec import (
    CACHE_VERSION,
    Runner,
    RunSpec,
    engine_for_spec,
    register_runner,
    registered_kinds,
    runner_for,
    spec_fields,
    spec_key,
    spec_meta,
)
from repro.campaign.stores import (
    JsonDirStore,
    MemoryStore,
    NullStore,
    ResultCache,
    ResultStore,
    default_cache,
    default_disk_store,
    disk_cache_enabled,
)

__all__ = [
    "Campaign",
    "RunOutcome",
    "run",
    "run_cell",
    "run_payload",
    "sweep",
    "CACHE_VERSION",
    "Runner",
    "RunSpec",
    "engine_for_spec",
    "register_runner",
    "registered_kinds",
    "runner_for",
    "spec_fields",
    "spec_key",
    "spec_meta",
    "JsonDirStore",
    "MemoryStore",
    "NullStore",
    "ResultCache",
    "ResultStore",
    "default_cache",
    "default_disk_store",
    "disk_cache_enabled",
]
