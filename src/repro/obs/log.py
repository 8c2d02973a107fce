"""Structured one-line JSON logging with trace correlation.

The service, workers, and the jobs scheduler historically narrate with
plain ``print`` lines — fine on a developer's terminal, useless to a
log pipeline.  This module gives those call sites one API:

    LOG.info("job.finished", f"job {job_id} completed", job=job_id)

In the default **plain** mode the second argument (or a ``key=value``
rendering) is printed exactly as before, so nothing changes for humans.
With ``REPRO_LOG_JSON=1`` each event becomes one
JSON object per line on stderr — ``ts``, ``level``, ``event``, the
fields, and the current ``trace_id`` when a trace is active — so logs
join traces and metrics on the same correlation key.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from repro.obs.trace import TRACER, env_truthy


class StructuredLog:
    """Process-wide event logger: plain lines or JSON lines."""

    def __init__(self) -> None:
        self.json_mode = env_truthy("REPRO_LOG_JSON")
        self._lock = threading.Lock()

    def _emit(
        self, level: str, event: str, message: str | None, fields: dict
    ) -> None:
        if not self.json_mode:
            # ``message`` is the plain-mode text; events without one
            # (scheduler internals) exist only in JSON mode, keeping
            # the default terminal output exactly as it always was.
            if message is not None:
                print(message, flush=True)
            return
        record: dict = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
        }
        trace_id = TRACER.current_trace_id()
        if trace_id:
            record["trace_id"] = trace_id
        if message is not None:
            record["message"] = message
        for key, value in fields.items():
            if key not in record:
                record[key] = value
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            print(line, file=sys.stderr, flush=True)

    def info(self, event: str, message: str | None = None, **fields) -> None:
        """One informational event (plain: prints ``message`` as-is)."""
        self._emit("info", event, message, fields)

    def warning(self, event: str, message: str | None = None, **fields) -> None:
        """One warning event."""
        self._emit("warning", event, message, fields)

    def error(self, event: str, message: str | None = None, **fields) -> None:
        """One error event."""
        self._emit("error", event, message, fields)


#: The process-wide logger (``REPRO_LOG_JSON=1`` puts it in JSON mode).
LOG = StructuredLog()
