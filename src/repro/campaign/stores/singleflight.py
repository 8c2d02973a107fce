"""Single-flight coalescing of concurrent identical computes.

When N threads ask for the same cold cache key at once — N handler
threads of the ``ThreadingHTTPServer`` service, say — exactly one of
them (the *leader*) should execute the compute; the others
(*followers*) wait and receive the leader's payload.  Without
coalescing each thread runs the full simulation, multiplying minutes
of identical work.

:class:`SingleFlightStore` wraps any inner store and overrides
``get_or_compute`` with that protocol.  Flights live in a
process-wide table keyed by ``(scope, key)``:

- *Process-wide*, not per-instance, because every ``default_store()``
  call builds a fresh wrapper — two service threads each resolving the
  default stack must still share one flight.  Keys are content hashes
  of the spec, so one key can only ever name one computation and
  cross-instance sharing is safe.  ``scope`` (default ``"default"``)
  exists so tests with independent store roots can opt out of sharing.
- Keyed by *thread owner*, so a leader whose compute re-enters
  ``get_or_compute`` for its own key computes directly instead of
  deadlocking on its own flight.

Instances hold only the inner store and the scope string — no locks or
events — so a ``SingleFlightStore`` pickles cleanly into pool workers
(each process has its own flight table, which is exactly right:
flights coalesce threads, processes coordinate through the disk layer).

A leader that fails wakes its followers empty-handed; each follower
then computes for itself, so coalescing never turns one transient
failure into N failures.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from repro.campaign.stores.base import ResultStore, _count_request
from repro.obs.metrics import METRICS


def _count_flight(outcome: str) -> None:
    METRICS.counter_inc(
        "repro_store_single_flight_total",
        "Coalesced-compute transactions by role outcome",
        outcome=outcome,
    )

#: Flight-table scope used by the default store stack.
DEFAULT_SCOPE = "default"


class _Flight:
    """One in-progress compute: the leader's thread and its outcome."""

    __slots__ = ("event", "owner", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.owner = threading.get_ident()
        #: The leader's payload; still None after the event fires means
        #: the leader failed and followers must compute for themselves.
        self.payload: dict | None = None


_FLIGHTS: dict[tuple[str, str], _Flight] = {}
_FLIGHTS_LOCK = threading.Lock()


class SingleFlightStore(ResultStore):
    """Wrap ``inner`` so concurrent identical computes run once."""

    def __init__(
        self, inner: ResultStore, *, scope: str = DEFAULT_SCOPE
    ) -> None:
        self.inner = inner
        self.scope = scope

    # -- plain delegation --------------------------------------------------

    def get(self, key: str) -> dict | None:
        return self.inner.get(key)

    def put(
        self, key: str, payload: dict, meta: Mapping | None = None
    ) -> None:
        self.inner.put(key, payload, meta=meta)

    # -- the coalesced transaction -----------------------------------------

    def _settle(self, key: str, payload: dict | None) -> None:
        """Close the flight for ``key`` and wake every follower.

        ``payload=None`` reports leader failure — followers recompute.
        """
        with _FLIGHTS_LOCK:
            flight = _FLIGHTS.pop((self.scope, key), None)
        if flight is not None:
            flight.payload = payload
            flight.event.set()

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], tuple[dict, dict]],
        meta: Mapping | None = None,
        validate: Callable[[dict], bool] | None = None,
    ) -> tuple[dict, bool, dict]:
        payload = self.inner.get(key)
        if payload is not None and (validate is None or validate(payload)):
            _count_request(hit=True)
            return payload, True, {}
        ident = threading.get_ident()
        with _FLIGHTS_LOCK:
            flight = _FLIGHTS.get((self.scope, key))
            if flight is None:
                _FLIGHTS[(self.scope, key)] = _Flight()
                role = "leader"
            elif flight.owner == ident:
                # Nested call under a flight this thread already
                # leads: compute directly, leave settling to the
                # outer owner.
                role = "nested"
            else:
                role = "follower"
        if role == "follower":
            flight.event.wait()
            if flight.payload is not None:
                _count_request(hit=True)
                _count_flight("coalesced")
                return flight.payload, True, {"single_flight": "coalesced"}
            # Leader failed; fall through to computing ourselves
            # (un-coalesced, but correct).
        elif role == "leader":
            try:
                payload, info = compute()
            except BaseException:
                self._settle(key, None)
                raise
            self.inner.put(key, payload, meta=meta)
            self._settle(key, payload)
            _count_request(hit=False)
            _count_flight("led")
            return payload, False, info
        payload, info = compute()
        self.inner.put(key, payload, meta=meta)
        _count_request(hit=False)
        return payload, False, info


def flights_in_progress(scope: str = DEFAULT_SCOPE) -> int:
    """How many flights are currently open under ``scope`` (for tests)."""
    with _FLIGHTS_LOCK:
        return sum(1 for s, _ in _FLIGHTS if s == scope)
