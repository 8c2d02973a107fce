"""The default result cache: one process memo over the disk store.

A run given no explicit store reads and writes :class:`ResultCache`.
It keeps, per cache key, the ``(payload, decoded result)`` pair of the
last ``MEMO_LIMIT`` cells this process looked up or computed, in front
of the environment's :class:`~repro.campaign.stores.JsonDirStore`
(none under ``REPRO_CACHE=0``).  :func:`repro.campaign.engine.run_cell`
does the lookup — the memo, otherwise the disk and one decode — so a
warm hit is one dict read.  Every memo write goes through
:meth:`ResultCache.remember`, which evicts the oldest entries above the
limit, so a long-running ``repro serve`` holds a bounded memo; an
evicted cell is read from the disk again (recomputed without one).
Keys are content hashes of the spec, so a key can only ever name one
result.

:func:`default_cache` builds the cache once per process, and builds a
new one (with an empty memo) only when ``REPRO_CACHE`` or
``REPRO_CACHE_DIR`` changes, so a run under another cache directory
never sees this one's memo.  An explicit store is never fronted by the
memo.  Pool workers build their own cache from the same environment
and share results through the disk store.

The cache also holds the single-flight table.  When N threads ask for
the same cold key at once — N handler threads of ``repro serve``, say
— exactly one of them (the *leader*) computes; the others
(*followers*) wait and receive the leader's outcome.  A leader whose
compute re-enters for its own key computes directly instead of waiting
on itself.  A leader that fails wakes its followers empty-handed, and
each then computes for itself, so coalescing never turns one transient
failure into N failures.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

from repro.campaign.stores.disk import JsonDirStore
from repro.obs.metrics import METRICS


#: The memo keeps this many cells, evicting the oldest first (a
#: ``service_mix`` perfbench run touches about 160; one cell is ~15 KB).
MEMO_LIMIT = 1024


def _count_flight(outcome: str) -> None:
    METRICS.counter_inc(
        "repro_store_single_flight_total",
        "Coalesced-compute transactions by role outcome",
        outcome=outcome,
    )


class _Flight:
    """One in-progress compute: the leader's thread and its outcome."""

    __slots__ = ("event", "owner", "value")

    def __init__(self, owner: int) -> None:
        self.event = threading.Event()
        self.owner = owner
        #: The leader's outcome; still None after the event fires means
        #: the leader failed and followers must compute for themselves.
        self.value: Any = None


class ResultCache:
    """A memo of decoded cells over an optional disk store."""

    def __init__(self, disk: JsonDirStore | None) -> None:
        self.disk = disk
        #: key -> (payload, decoded result), oldest first
        self.memo: dict[str, tuple[dict, Any]] = {}
        #: key -> the flight computing it
        self.flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()

    def remember(self, key: str, entry: tuple[dict, Any]) -> None:
        """Keep ``entry`` for ``key``; the oldest go above ``MEMO_LIMIT``.

        Writers take the lock, so eviction never races an insert;
        readers stay one lock-free ``memo.get``.
        """
        with self._lock:
            self.memo[key] = entry
            while len(self.memo) > MEMO_LIMIT:
                del self.memo[next(iter(self.memo))]

    def coalesce(
        self, key: str, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Run ``compute`` once for concurrent identical cold ``key``s.

        Returns ``(outcome, coalesced)``: a follower gets the leader's
        outcome and True, every other caller its own and False.
        """
        ident = threading.get_ident()
        with self._lock:
            flight = self.flights.get(key)
            leader = flight is None
            if leader:
                flight = self.flights[key] = _Flight(ident)
        if leader:
            try:
                flight.value = compute()
            finally:
                with self._lock:
                    del self.flights[key]
                flight.event.set()
            _count_flight("led")
            return flight.value, False
        if flight.owner != ident:
            flight.event.wait()
            if flight.value is not None:
                _count_flight("coalesced")
                return flight.value, True
        # Our own flight (a nested run of the key this thread leads),
        # or a leader that failed: compute un-coalesced.
        return compute(), False


def disk_cache_enabled() -> bool:
    """Whether the disk store is active (``REPRO_CACHE=0`` disables it)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def default_disk_store() -> JsonDirStore | None:
    """The disk store under ``REPRO_CACHE_DIR`` (default ``.exp_cache``),
    or None when disabled."""
    if not disk_cache_enabled():
        return None
    return JsonDirStore(os.environ.get("REPRO_CACHE_DIR", ".exp_cache"))


#: ((REPRO_CACHE, REPRO_CACHE_DIR), the cache built under them)
_DEFAULT: tuple[tuple, ResultCache] | None = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The process's result cache for the current environment."""
    global _DEFAULT
    env = (os.environ.get("REPRO_CACHE"), os.environ.get("REPRO_CACHE_DIR"))
    current = _DEFAULT
    if current is None or current[0] != env:
        with _DEFAULT_LOCK:
            current = _DEFAULT
            if current is None or current[0] != env:
                current = _DEFAULT = (env, ResultCache(default_disk_store()))
    return current[1]
