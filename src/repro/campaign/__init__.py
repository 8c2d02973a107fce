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

from repro import lazy_exports

_EXPORTS = {
    "Campaign": "engine",
    "RunOutcome": "engine",
    "run": "engine",
    "run_cell": "engine",
    "run_payload": "engine",
    "sweep": "engine",
    "CACHE_VERSION": "spec",
    "RunSpec": "spec",
    "engine_for_spec": "spec",
    "register_runner": "spec",
    "runner_for": "spec",
    "spec_key": "spec",
    "JsonDirStore": "stores.disk",
    "MemoryStore": "stores.base",
    "NullStore": "stores.base",
    "ResultStore": "stores.base",
    "default_cache": "stores.cache",
    "default_disk_store": "stores.cache",
    "disk_cache_enabled": "stores.cache",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
