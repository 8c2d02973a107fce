"""End-to-end tracing: spans, context propagation, Chrome export.

One campaign run — CLI or client, coordinator, every fleet worker, and
the per-window engine loop inside each cell — should read as *one*
trace.  The pieces:

- :class:`Span` — a named interval with ``trace_id``/``span_id``/
  ``parent_id``, wall-clock start, duration, and a small ``args`` dict.
- :class:`Tracer` — the process-wide span factory.  The current span
  rides a :class:`~contextvars.ContextVar` (the same discipline the
  progress broker uses), so nested ``with TRACER.span(...)`` blocks
  parent correctly across the service's per-request threads.
- **Propagation** — :meth:`Tracer.propagation_header` renders the
  current context as the ``X-Repro-Trace`` header value
  (``trace_id:span_id``); :meth:`Tracer.activate` adopts one on the
  receiving side.  The HTTP service extracts the header for every
  route, and both the worker backend and the jobs client inject it, so
  worker-side spans share the coordinator's ``trace_id``.
- **Storage** — finished spans land in a bounded in-memory ring
  (served by ``GET /v1/trace/<trace_id>``) and, when configured, an
  append-only JSONL sink for post-hoc export.
- :func:`chrome_trace` — spans as Chrome trace-event JSON, which loads
  directly in Perfetto / ``chrome://tracing``.

Tracing is **off by default** and costs one attribute check on the hot
paths when off.  Enable with ``REPRO_TRACE=1`` (or
:meth:`Tracer.configure`); ``REPRO_TRACE_SAMPLE`` sets the per-window
sampling stride and ``REPRO_TRACE_JSONL`` the sink path.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.observers import Observer

#: The propagation header carried by every traced HTTP request.
TRACE_HEADER = "X-Repro-Trace"

#: Default bounded-ring capacity (spans retained per process).
DEFAULT_RING = 4096

#: Default per-window sampling stride for engine phase spans.
DEFAULT_SAMPLE_EVERY = 32

_HEX = set("0123456789abcdef")


def _new_id(length: int) -> str:
    return uuid.uuid4().hex[:length]


def _valid_id(value: str, max_length: int = 32) -> bool:
    return (
        0 < len(value) <= max_length and all(ch in _HEX for ch in value)
    )


@dataclass
class Span:
    """One finished interval of work within a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float
    duration_s: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Span":
        return cls(
            name=str(raw["name"]),
            trace_id=str(raw["trace_id"]),
            span_id=str(raw["span_id"]),
            parent_id=raw.get("parent_id"),
            start_s=float(raw["start_s"]),
            duration_s=float(raw["duration_s"]),
            pid=int(raw.get("pid", 0)),
            tid=int(raw.get("tid", 0)),
            args=dict(raw.get("args") or {}),
        )


class _SpanHandle:
    """Context manager for one open span; records itself on exit."""

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id", "args",
        "_token", "_start_wall", "_start_perf",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        args: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(16)
        self.parent_id = parent_id
        self.args = args
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "_SpanHandle":
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start_perf
        if self._token is not None:
            _CURRENT.reset(self._token)
        if exc_type is not None:
            self.args = dict(self.args)
            self.args["error"] = exc_type.__name__
        self.tracer._record(
            Span(
                name=self.name,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start_s=self._start_wall,
                duration_s=duration,
                pid=os.getpid(),
                tid=threading.get_ident() % 1_000_000,
                args=self.args,
            )
        )


class _NullSpan:
    """Shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()
    span_id = None
    trace_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: (trace_id, span_id) of the innermost open span on this context.
_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = (
    contextvars.ContextVar("repro_trace_current", default=None)
)


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


class Tracer:
    """Process-wide span factory with a bounded ring and JSONL sink."""

    def __init__(self) -> None:
        self.enabled = _env_truthy("REPRO_TRACE")
        try:
            self.sample_every = max(
                1, int(os.environ.get("REPRO_TRACE_SAMPLE", DEFAULT_SAMPLE_EVERY))
            )
        except ValueError:
            self.sample_every = DEFAULT_SAMPLE_EVERY
        self._ring: deque[Span] = deque(maxlen=DEFAULT_RING)
        self._lock = threading.Lock()
        self._sink_path: str | None = (
            os.environ.get("REPRO_TRACE_JSONL") or None
        )

    def configure(
        self,
        *,
        enabled: bool | None = None,
        sample_every: int | None = None,
        sink: str | None = None,
        ring: int | None = None,
    ) -> None:
        """Adjust the tracer (CLI flags override the env defaults)."""
        with self._lock:
            if enabled is not None:
                self.enabled = enabled
            if sample_every is not None:
                self.sample_every = max(1, int(sample_every))
            if sink is not None:
                self._sink_path = sink or None
            if ring is not None:
                self._ring = deque(self._ring, maxlen=max(16, int(ring)))

    # -- span creation ------------------------------------------------------

    def span(self, name: str, **args) -> _SpanHandle | _NullSpan:
        """Open a span under the current context (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        current = _CURRENT.get()
        if current is None:
            trace_id, parent_id = _new_id(16), None
        else:
            trace_id, parent_id = current
        return _SpanHandle(self, name, trace_id, parent_id, args)

    def activate(self, trace_id: str, parent_id: str):
        """Adopt a remote parent context (from a propagation header).

        Returns a context-manager; spans opened inside it join the
        remote trace as children of ``parent_id``.
        """
        return _ActivatedContext(trace_id, parent_id)

    # -- propagation --------------------------------------------------------

    def current_trace_id(self) -> str | None:
        current = _CURRENT.get()
        return current[0] if current else None

    def propagation_header(self) -> str | None:
        """The current context as an ``X-Repro-Trace`` value, if any."""
        if not self.enabled:
            return None
        current = _CURRENT.get()
        if current is None:
            return None
        return f"{current[0]}:{current[1]}"

    @staticmethod
    def parse_header(value: str | None) -> tuple[str, str] | None:
        """``(trace_id, parent_span_id)`` from a header, or None."""
        if not value or ":" not in value:
            return None
        trace_id, _, parent_id = value.partition(":")
        trace_id, parent_id = trace_id.strip(), parent_id.strip()
        if _valid_id(trace_id) and _valid_id(parent_id):
            return trace_id, parent_id
        return None

    # -- storage ------------------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)
            sink = self._sink_path
        if sink:
            line = json.dumps(span.to_dict(), sort_keys=True)
            try:
                with self._lock:
                    with open(sink, "a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
            except OSError:
                pass

    def spans(self, trace_id: str | None = None) -> list[Span]:
        """A snapshot of retained spans (optionally one trace only)."""
        with self._lock:
            snapshot = list(self._ring)
        if trace_id is None:
            return snapshot
        return [span for span in snapshot if span.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in the ring, oldest first."""
        seen: dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        """Drop retained spans (test isolation)."""
        with self._lock:
            self._ring.clear()


class _ActivatedContext:
    """Context manager installing a remote (trace_id, parent) pair."""

    __slots__ = ("trace_id", "parent_id", "_token")

    def __init__(self, trace_id: str, parent_id: str) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "_ActivatedContext":
        self._token = _CURRENT.set((self.trace_id, self.parent_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)


#: The process-wide tracer (workers pick up REPRO_TRACE from the env).
TRACER = Tracer()


class TracingObserver(Observer):
    """Per-window engine phase timings, recorded under sampling.

    Attached by :class:`~repro.engine.SteppingEngine` when tracing is
    enabled.  The engine counts its windows and times only every
    ``sample_every``-th one, in three phases — the strategy window (DTM
    policy decision, level-1 evaluation, scheduler advance), the
    thermal kernel step, and accounting + observer fan-out (which
    contains checkpoint writes) — and hands them here as a ``window``
    span whose args carry the phase split, so a Perfetto view of a slow
    cell answers "where did the time go".  Unsampled windows pay one
    counter increment and one modulo.

    Transient: kept out of the engine's observer list and excluded from
    checkpoints, so attaching it never changes checkpoint shape or
    restore compatibility.
    """

    transient = True

    def __init__(
        self, tracer: Tracer | None = None, sample_every: int | None = None
    ) -> None:
        self.tracer = tracer if tracer is not None else TRACER
        self.sample_every = (
            sample_every if sample_every else self.tracer.sample_every
        )

    def record_window(
        self,
        index: int,
        policy_s: float,
        kernel_s: float,
        apply_s: float,
    ) -> None:
        """Emit the span of sampled window ``index`` (engine-counted)."""
        total = policy_s + kernel_s + apply_s
        with self.tracer.span(
            "window",
            index=index,
            policy_s=round(policy_s, 9),
            kernel_s=round(kernel_s, 9),
            apply_s=round(apply_s, 9),
            sampled_every=self.sample_every,
        ) as span:
            # Back-date the span to cover the measured window instead of
            # the (empty) body of this with-block.
            if isinstance(span, _SpanHandle):
                span._start_wall = time.time() - total
                span._start_perf = time.perf_counter() - total


def engine_observer() -> TracingObserver | None:
    """A fresh :class:`TracingObserver` when tracing is on, else None."""
    if not TRACER.enabled:
        return None
    return TracingObserver(TRACER)


def chrome_trace(spans: list[Span]) -> dict:
    """Spans as a Chrome trace-event document (Perfetto-loadable).

    Complete (``ph: "X"``) events with microsecond timestamps; span
    relationships ride in ``args`` since the viewer nests by pid/tid
    and time containment.
    """
    events = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start_s * 1e6, 1),
                "dur": max(0.1, round(span.duration_s * 1e6, 1)),
                "pid": span.pid,
                "tid": span.tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.args,
                },
            }
        )
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def read_jsonl(path: str) -> Iterator[Span]:
    """Spans from a JSONL sink file (unreadable lines are skipped)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield Span.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue
