"""Process-wide run-progress broker (the feed behind job status).

The stepping engine is the only place that knows how far a run has
gotten; the jobs service is several layers away.  The broker decouples
them: the jobs scheduler labels each executing cell
``<job-id>/<cell-key>`` (:meth:`ProgressBroker.track`), the engine's
:class:`~repro.engine.observers.ProgressObserver` publishes snapshots
under whatever label is active on the current thread, and
``GET /v1/jobs/<id>`` (``repro jobs status``) reads the job's entries.
Labels are context-local, so concurrent runs never cross their
streams.

Publishing without an active label is a silent no-op — engines run
identically whether or not anyone is watching.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from contextvars import ContextVar
from typing import Iterator

#: Finished runs retained for late status polls (oldest evicted
#: first); active runs are never evicted.
_MAX_FINISHED = 64

_CURRENT_LABEL: ContextVar[str | None] = ContextVar(
    "repro_progress_label", default=None
)


class ProgressBroker:
    """Thread-safe label -> latest-progress-snapshot map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: OrderedDict[str, dict] = OrderedDict()

    @contextlib.contextmanager
    def track(self, label: str) -> Iterator[None]:
        """Label engine runs on this context with ``label``.

        Nested tracks shadow the outer label for their duration.
        """
        token = _CURRENT_LABEL.set(label)
        try:
            yield
        finally:
            _CURRENT_LABEL.reset(token)

    def publish(self, snapshot: dict) -> None:
        """Record ``snapshot`` under the active label (no-op untracked)."""
        label = _CURRENT_LABEL.get()
        if label is None:
            return
        with self._lock:
            self._runs[label] = dict(snapshot)
            self._runs.move_to_end(label)
            finished = [
                key for key, snap in self._runs.items() if snap.get("done")
            ]
            for key in finished[: max(0, len(finished) - _MAX_FINISHED)]:
                del self._runs[key]

    def snapshot(self) -> dict[str, dict]:
        """Current progress of every run, by label."""
        with self._lock:
            return {key: dict(snap) for key, snap in self._runs.items()}

    def forget(self, label: str) -> bool:
        """Drop one run's snapshot; True when something was removed.

        Callers that know a run is over (a finished job cell) prune
        eagerly instead of waiting for the bounded-finished eviction, so
        a long-lived ``serve --jobs`` process keeps the broker scoped to
        live work.
        """
        with self._lock:
            return self._runs.pop(label, None) is not None

    def forget_prefix(self, prefix: str) -> int:
        """Drop every run whose label starts with ``prefix``.

        Jobs label cells ``<job_id>/<cache_key>``, so one call prunes a
        whole job on completion/cancel.  Returns how many were removed.
        """
        with self._lock:
            doomed = [key for key in self._runs if key.startswith(prefix)]
            for key in doomed:
                del self._runs[key]
            return len(doomed)

    def clear(self) -> None:
        """Forget every run (tests)."""
        with self._lock:
            self._runs.clear()


#: The process-wide broker every engine and service instance shares.
PROGRESS = ProgressBroker()
