"""Result stores and the default result cache.

A :class:`ResultStore` maps spec keys to JSON-serializable payload
dicts.  Stores never see result objects — en/decoding belongs to the
runner (:mod:`repro.campaign.spec`) — so any store can hold any kind.

Implementations:

- :class:`MemoryStore` — per-process dict.
- :class:`JsonDirStore` — on-disk JSON split by key hash, with atomic
  (tmp + :func:`os.replace`) writes and versioned records
  (:mod:`~repro.campaign.stores.disk`).
- :class:`NullStore` — caches nothing (every run recomputes).

A run given no store uses :func:`default_cache`: one process memo of
decoded cells over the disk store, with single-flight built in
(:mod:`~repro.campaign.stores.cache`).  ``REPRO_CACHE_DIR`` relocates
its disk store (default ``.exp_cache``) and ``REPRO_CACHE=0`` drops it,
leaving the memo alone.
"""

from __future__ import annotations

from repro.campaign.stores.base import MemoryStore, NullStore, ResultStore
from repro.campaign.stores.cache import (
    ResultCache,
    default_cache,
    default_disk_store,
    disk_cache_enabled,
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

__all__ = [
    "DEFAULT_TMP_GRACE_S",
    "RECORD_FORMAT",
    "RECORD_VERSION",
    "UNRECORDED",
    "JsonDirStore",
    "MemoryStore",
    "NullStore",
    "ResultCache",
    "ResultStore",
    "default_cache",
    "default_disk_store",
    "disk_cache_enabled",
    "make_record",
    "payload_of",
    "version_of",
]
