"""Store protocol and in-memory implementations.

A :class:`ResultStore` maps spec keys to JSON-serializable payload
dicts.  Stores never see result objects — en/decoding belongs to the
runner (:mod:`repro.campaign.spec`) — so any store can hold any kind.

``put(key, payload, meta=...)`` takes the spec's cache metadata
(``cache_version``/``kind``/key fields, see
:func:`repro.campaign.spec.spec_meta`).  Disk stores persist it in the
record beside the payload; memory stores ignore it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping


class ResultStore(ABC):
    """Key -> payload-dict storage with cache-miss-as-None semantics."""

    @abstractmethod
    def get(self, key: str) -> dict | None:
        """Return the payload stored under ``key``, or None on a miss."""

    @abstractmethod
    def put(
        self, key: str, payload: dict, meta: Mapping | None = None
    ) -> None:
        """Store ``payload`` under ``key`` (best effort; may drop).

        ``meta`` is the spec's cache metadata (version/kind/key
        fields); stores that keep no records ignore it.
        """

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class NullStore(ResultStore):
    """Stores nothing; every lookup misses."""

    def get(self, key: str) -> dict | None:
        return None

    def put(
        self, key: str, payload: dict, meta: Mapping | None = None
    ) -> None:
        pass


class MemoryStore(ResultStore):
    """In-process dict store."""

    def __init__(self) -> None:
        self._data: dict[str, dict] = {}

    def get(self, key: str) -> dict | None:
        return self._data.get(key)

    def put(
        self, key: str, payload: dict, meta: Mapping | None = None
    ) -> None:
        self._data[key] = payload

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every cached payload."""
        self._data.clear()
