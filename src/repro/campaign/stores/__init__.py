"""Pluggable result stores for the campaign engine.

A :class:`ResultStore` maps spec keys to JSON-serializable payload
dicts.  Stores never see result objects — en/decoding belongs to the
runner (:mod:`repro.campaign.spec`) — so any store can hold any kind.

Implementations:

- :class:`MemoryStore` — per-process dict (the old in-process memo).
- :class:`JsonDirStore` — on-disk JSON split by key hash, with atomic
  (tmp + :func:`os.replace`) writes and versioned records
  (:mod:`~repro.campaign.stores.disk`).
- :class:`SingleFlightStore` — wrapper coalescing concurrent identical
  lookup-then-computes into one execution
  (:mod:`~repro.campaign.stores.singleflight`).
- :class:`NullStore` — caches nothing (every run recomputes).
- :class:`TieredStore` — layered lookup (memory in front of disk) with
  read-through backfill.

:func:`default_store` assembles the standard stack from the
environment: ``REPRO_CACHE_DIR`` relocates the disk cache (default
``.exp_cache``) and ``REPRO_CACHE=0`` drops the disk layer entirely.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.campaign.stores.base import (
    GLOBAL_MEMORY,
    MemoryStore,
    NullStore,
    ResultStore,
    TieredStore,
)
from repro.campaign.stores.disk import (
    DEFAULT_TMP_GRACE_S,
    RECORD_FORMAT,
    RECORD_VERSION,
    UNRECORDED,
    JsonDirStore,
    make_record,
    payload_of,
    version_of,
)
from repro.campaign.stores.singleflight import (
    SingleFlightStore,
    flights_in_progress,
)

__all__ = [
    "GLOBAL_MEMORY",
    "DEFAULT_TMP_GRACE_S",
    "RECORD_FORMAT",
    "RECORD_VERSION",
    "UNRECORDED",
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
    "flights_in_progress",
    "make_record",
    "payload_of",
    "version_of",
]


def cache_dir() -> Path:
    """The on-disk cache directory (``REPRO_CACHE_DIR``, default ``.exp_cache``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".exp_cache"))


def disk_cache_enabled() -> bool:
    """Whether the disk layer is active (``REPRO_CACHE=0`` disables it)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def default_disk_store() -> JsonDirStore | None:
    """The environment-configured disk layer, or None when disabled."""
    if not disk_cache_enabled():
        return None
    return JsonDirStore(cache_dir())


def default_store() -> ResultStore:
    """The standard store stack: single-flight over memory, then disk."""
    disk = default_disk_store()
    if disk is None:
        return SingleFlightStore(GLOBAL_MEMORY)
    return SingleFlightStore(TieredStore([GLOBAL_MEMORY, disk]))
