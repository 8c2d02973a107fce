"""On-disk JSON store with atomic writes and versioned records.

Layout: keys live under ``root/<hh>/<key>.json`` where ``<hh>`` is the
last two hex characters of the key hash, keeping directories small
when campaigns write thousands of results.  This is the only layout
the store reads: a miss opens exactly one path.

Writes are atomic: the document goes to a
``<key>.json.tmp.<pid>.<tid>.<counter>`` sibling first and is
published with :func:`os.replace`
(:func:`~repro.engine.state.publish_atomic`, the routine checkpoints
and job records use too), so a reader (or a concurrent pool worker, or
another handler thread of the HTTP service) can never observe a
partially written file, and two threads writing the same key never
share a tmp file.

A record is encoded whole by :func:`json.dumps` (CPython's C encoder;
``json.dump`` streams through the pure-Python one, about twice as
slow on a Chapter 5 record) and written with one ``write``.

On-disk format: each entry is a *record* wrapping the payload with its
cache metadata::

    {"format": "repro-cache-record", "record": 1,
     "cache_version": "v2", "kind": "ch4",
     "spec": {...key fields...}, "payload": {...}}

:class:`CacheRecord` declares it; its field order is the file's byte
order.  ``put`` is the one writer, and ``get`` decodes the record:
anything else (a *bare* payload file from before records, another
``record`` version, a mistyped field) is a miss, which
:meth:`JsonDirStore.stats` labels ``"unrecorded"``.

I/O errors degrade to cache misses — the store is an accelerator, not
a dependency.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.campaign.spec import CACHE_VERSION
from repro.campaign.stores.base import ResultStore
from repro.engine.codec import (
    Count,
    Float,
    Object,
    Optional,
    Text,
    decode_record,
    domain,
    state_dict,
)
from repro.engine.state import publish_atomic
from repro.errors import CheckpointError, ConfigurationError

#: ``format`` marker of wrapped on-disk entries.
RECORD_FORMAT = "repro-cache-record"
#: Version of the record wrapper itself (not of the cached payload).
RECORD_VERSION = 1
#: Version label of entries that are not readable records (bare
#: pre-record files among them).
UNRECORDED = "unrecorded"
#: Tmp files older than this many seconds are swept by ``prune()``;
#: young ones may belong to an in-flight writer and are left alone.
DEFAULT_TMP_GRACE_S = 3600.0


@dataclass(frozen=True, kw_only=True)
class CacheRecord:
    """One on-disk entry: a payload and its spec's cache metadata."""

    format: str = domain(Text((RECORD_FORMAT,)), RECORD_FORMAT, required=True)
    record: int = domain(
        Count(RECORD_VERSION + 1, RECORD_VERSION), RECORD_VERSION, required=True
    )
    cache_version: str = domain(Text())
    kind: str | None = domain(Optional(Text()))
    spec: dict | None = domain(Optional(Object()))
    payload: dict = domain(Object())


def make_record(
    payload: dict, meta: Mapping | None = None, key: str | None = None
) -> dict:
    """The on-disk record of ``payload``.

    Fields missing from ``meta`` default to the current
    ``CACHE_VERSION``, the kind parsed from the key prefix, and no spec
    fields.
    """
    meta = meta or {}
    kind = meta.get("kind") or (key and key.rsplit("-", 1)[0])
    return state_dict(CacheRecord(
        cache_version=meta.get("cache_version", CACHE_VERSION), kind=kind,
        spec=meta.get("spec"), payload=payload,
    ))


def _read_record(document: object) -> CacheRecord | None:
    """The record a parsed entry document holds, or None when it is not
    one this store reads (a miss)."""
    try:
        return decode_record(CacheRecord, document, "cache record")
    except CheckpointError:
        return None


def _is_hash_shard(name: str) -> bool:
    """Whether ``name`` is a two-hex-character key-hash directory."""
    return len(name) == 2 and all(c in "0123456789abcdef" for c in name)


class JsonDirStore(ResultStore):
    """On-disk JSON store split by key hash (see module docstring)."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[-2:] / f"{key}.json"

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        record = _read_record(self._read_document(self._path(key)))
        return None if record is None else record.payload

    @staticmethod
    def _read_document(path: Path) -> object:
        try:
            with path.open() as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # Missing, unreadable, or not JSON.
            return None

    # -- publish -----------------------------------------------------------

    def put(
        self, key: str, payload: dict, meta: Mapping | None = None
    ) -> None:
        path = self._path(key)
        try:
            text = json.dumps(make_record(payload, meta, key=key))
            publish_atomic(str(path), text.encode())
        except (OSError, TypeError, ValueError):
            pass  # a failed write is a later miss; the tmp is already gone

    # -- enumeration -------------------------------------------------------

    def _hash_dirs(self) -> list[Path]:
        """The ``<hh>/`` directories under the root."""
        try:
            return [
                sub for sub in self.root.iterdir()
                if sub.is_dir() and _is_hash_shard(sub.name)
            ]
        except OSError:
            return []

    def _entry_items(self) -> list[tuple[str, Path]]:
        """``(key, path)`` of every entry file, sorted by key.

        Only ``<hh>/<key>.json`` files count; anything else under the
        root (e.g. seed-era flat ``<key>.json`` files) is invisible.
        """
        try:
            return sorted(
                (path.name[: -len(".json")], path)
                for sub in self._hash_dirs()
                for path in sub.glob("*.json")
            )
        except OSError:
            return []

    def _tmp_files(self) -> list[Path]:
        """Every leftover tmp file under the ``<hh>/`` directories."""
        try:
            return [
                path
                for sub in self._hash_dirs()
                for path in sub.glob("*.tmp.*")
                if path.is_file()
            ]
        except OSError:
            return []

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict:
        """Cache census: entries, bytes, per-version counts, tmp files.

        Like every other store operation this degrades instead of
        raising — an unreadable file simply doesn't count — so it is
        safe to call against a cache other processes are writing.
        """
        entries = 0
        total_bytes = 0
        shards: set[str] = set()
        versions: dict[str, int] = {}
        for key, path in self._entry_items():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
            shards.add(path.parent.name)
            record = _read_record(self._read_document(path))
            label = UNRECORDED if record is None else record.cache_version
            versions[label] = versions.get(label, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "shards": len(shards),
            "versions": dict(sorted(versions.items())),
            "tmp_files": len(self._tmp_files()),
        }

    def prune(
        self,
        max_entries: int | None = None,
        *,
        tmp_grace_s: float = DEFAULT_TMP_GRACE_S,
    ) -> int:
        """Evict oldest entries and sweep stale tmp files.

        With ``max_entries`` given, evicts oldest entries (by mtime)
        down to that count.  Tmp files older than ``tmp_grace_s``
        seconds — orphans of writers that crashed between opening the
        tmp and publishing it — are always swept; younger ones may
        belong to an in-flight writer and are left alone.  Returns the
        number of files removed.  Races are benign: a file deleted by
        a concurrent pruner just counts for whoever unlinked it first,
        and readers of a pruned key see an ordinary cache miss.

        A negative ``max_entries`` or ``tmp_grace_s`` (the latter would
        put the cutoff in the future and sweep in-flight writers' tmp
        files) raises :class:`ConfigurationError` before anything is
        removed.
        """
        Optional(Count()).decode(max_entries, "max_entries", self, ConfigurationError)
        Float(0.0).decode(tmp_grace_s, "tmp_grace_s", self, ConfigurationError)
        removed = self._sweep_tmp(tmp_grace_s)
        if max_entries is None:
            return removed
        dated = []
        for _, path in self._entry_items():
            try:
                dated.append((path.stat().st_mtime, path))
            except OSError:
                continue
        excess = len(dated) - max_entries
        if excess <= 0:
            return removed
        dated.sort(key=lambda item: item[0])
        for _, path in dated[:excess]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def _sweep_tmp(self, grace_s: float) -> int:
        cutoff = time.time() - grace_s
        removed = 0
        for path in self._tmp_files():
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed
