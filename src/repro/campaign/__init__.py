"""Generic experiment-campaign engine.

``run_cell`` runs any registered spec's cell on its stepping engine
with write-through caching (``run(spec)`` is its plain view);
``sweep()`` expands declarative parameter grids; ``Campaign`` runs a
batch in parallel with deterministic result order; the
``ResultStore`` hierarchy makes the cache pluggable (in-memory memo,
atomic on-disk JSON, null).

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
    GLOBAL_MEMORY,
    JsonDirStore,
    MemoryStore,
    NullStore,
    ResultStore,
    SingleFlightStore,
    TieredStore,
    cache_dir,
    default_disk_store,
    default_store,
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
    "GLOBAL_MEMORY",
    "JsonDirStore",
    "MemoryStore",
    "NullStore",
    "ResultStore",
    "SingleFlightStore",
    "TieredStore",
    "cache_dir",
    "default_disk_store",
    "default_store",
    "disk_cache_enabled",
]
