"""Store protocol and in-memory implementations.

A :class:`ResultStore` maps spec keys to JSON-serializable payload
dicts.  Stores never see result objects — en/decoding belongs to the
runner (:mod:`repro.campaign.spec`) — so any store can hold any kind.

Beyond plain ``get``/``put`` the protocol carries two optional
capabilities the engine layers use:

- ``put(key, payload, meta=...)`` — ``meta`` is the spec's cache
  metadata (``cache_version``/``kind``/key fields, see
  :func:`repro.campaign.spec.spec_meta`).  Disk stores persist it in
  the record beside the payload; memory stores ignore it.
- ``get_or_compute(key, compute, ...)`` — the lookup-then-compute
  transaction.  The base implementation is get/compute/put; the
  single-flight wrapper (:mod:`repro.campaign.stores.singleflight`)
  overrides it to coalesce concurrent identical computes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping

from repro.obs.metrics import METRICS


def _count_request(hit: bool) -> None:
    """Feed the warm-hit-ratio SLO: one sample per lookup transaction."""
    METRICS.counter_inc(
        "repro_store_requests_total",
        "Result-store lookup transactions by cache outcome",
        cache="hit" if hit else "miss",
    )


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

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], tuple[dict, dict]],
        meta: Mapping | None = None,
        validate: Callable[[dict], bool] | None = None,
    ) -> tuple[dict, bool, dict]:
        """Look up ``key``, computing and publishing it on a miss.

        ``compute`` returns ``(payload, info)`` where ``info`` carries
        compute provenance (e.g. ``compute_seconds``).  A stored
        payload rejected by ``validate`` (stale schema) is treated as a
        miss.  Returns ``(payload, hit, info)``.  The base
        implementation does not coalesce concurrent computes — wrap
        the store in a
        :class:`~repro.campaign.stores.SingleFlightStore` for that.
        """
        payload = self.get(key)
        if payload is not None and (validate is None or validate(payload)):
            _count_request(hit=True)
            return payload, True, {}
        payload, info = compute()
        self.put(key, payload, meta=meta)
        _count_request(hit=False)
        return payload, False, info

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


class TieredStore(ResultStore):
    """Layered store: first hit wins, earlier layers are backfilled.

    ``put`` writes through to every layer, so a memory front absorbs
    repeat lookups while a disk back survives the process.
    """

    def __init__(self, layers: list[ResultStore]) -> None:
        self.layers = list(layers)

    def get(self, key: str) -> dict | None:
        for index, layer in enumerate(self.layers):
            payload = layer.get(key)
            if payload is not None:
                for earlier in self.layers[:index]:
                    earlier.put(key, payload)
                return payload
        return None

    def put(
        self, key: str, payload: dict, meta: Mapping | None = None
    ) -> None:
        for layer in self.layers:
            layer.put(key, payload, meta=meta)


#: Process-wide memory layer shared by every default store instance,
#: preserving the old "one pytest session never repeats a run" memo.
GLOBAL_MEMORY = MemoryStore()
