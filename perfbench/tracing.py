"""Span tracing installed from outside the program.

:class:`Tracer` replaces public functions of the program's layers with
wrappers that record one span per call: name, start, end, parent span
and the trace id of the cell or request being served.  Self time (a
span's duration minus the time its child spans cover) and call counts
are aggregated per span name as the spans close; the first
``span_cap`` spans are also kept in memory and written out as a
Chrome-trace JSON when the run ends.  State is per thread, so the
threaded HTTP server can be traced as well.

Calls nested inside a span of the same name (a subclass method calling
its parent's, a tiered store calling its tiers) count as one call.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

#: (module, class, attribute, span name).  Subclass walks add every DTM
#: policy and result store (see :func:`_targets`).
TARGETS = (
    ("repro.engine.stepping", "SteppingEngine", "step_window", "engine.step"),
    ("repro.engine.stepping", "SteppingEngine", "apply_window", "engine.apply"),
    ("repro.engine.gang", "GangStrategy", "step_window", "engine.step"),
    ("repro.core.simulator", "Chapter4Strategy", "window", "simulator.window"),
    ("repro.core.simulator", "Chapter4Strategy", "window_with_decision", "simulator.body"),
    ("repro.core.simulator", "Chapter4Strategy", "window_fast", "simulator.fast"),
    ("repro.core.windowmodel", "WindowModel", "evaluate", "windowmodel.evaluate"),
    ("repro.cache.sharing", "SharedCacheModel", "solve", "sharing.solve"),
    ("repro.workloads.batch", "BatchScheduler", "advance", "batch.advance"),
    ("repro.core.kernel", "BatchedMemSpot", "step", "kernel.step"),
    ("repro.core.kernel", "GridMemSpot", "step_all", "kernel.step"),
    ("repro.core.kernel", "GridMemSpot", "step_all_uniform", "kernel.step"),
    ("repro.core.kernel", "GridMemSpot", "step_all_raw", "kernel.step"),
    ("repro.testbed.runner", "ServerStrategy", "window", "testbed.window"),
    ("repro.testbed.performance", "ServerWindowModel", "evaluate", "testbed.evaluate"),
    ("repro.api.service", "_Handler", "do_GET", "api.request"),
    ("repro.api.service", "_Handler", "do_POST", "api.request"),
    ("repro.api.client", "ReproClient", "simulate", "api.handler"),
    ("repro.api.client", "ReproClient", "server", "api.handler"),
    ("repro.api.envelope", "ResultEnvelope", "to_json", "api.envelope"),
    ("repro.jobs.scheduler", "JobsManager", "submit_body", "jobs.submit"),
)
#: (module, base class, attribute, span name): wrapped on every subclass
#: that defines the attribute itself.
SUBCLASS_TARGETS = (
    ("repro.dtm.base", "DTMPolicy", "decide", "dtm.decide"),
    ("repro.dtm.base", "DTMPolicy", "decide_all", "dtm.decide_all"),
    ("repro.campaign.stores.base", "ResultStore", "get", "store.get"),
    ("repro.campaign.stores.base", "ResultStore", "put", "store.put"),
)
#: Modules imported first so every subclass exists before the walk.
SUBCLASS_MODULES = (
    "repro.analysis.specs",
    "repro.campaign.stores",
    "repro.dtm",
)


def _subclasses(cls) -> list:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _targets() -> tuple[list, list[str]]:
    """Resolved (owner, attribute, span name) triples and missing names."""
    resolved, missing = [], []
    for module_name, class_name, attr, span in TARGETS:
        try:
            owner = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{class_name}")
            continue
        if attr not in owner.__dict__:
            missing.append(f"{module_name}.{class_name}.{attr}")
            continue
        resolved.append((owner, attr, span))
    for module_name in SUBCLASS_MODULES:
        importlib.import_module(module_name)
    for module_name, class_name, attr, span in SUBCLASS_TARGETS:
        try:
            base = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{class_name}")
            continue
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                resolved.append((cls, attr, span))
    return resolved, missing


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "trace", "tid", "next_id")

    def __init__(self, tid: int) -> None:
        self.stack: list = []
        #: span name -> [calls, self_ns, total_ns]
        self.totals: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.trace = "-"
        self.tid = tid
        self.next_id = 0


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._installed: list[tuple] = []
        self.missing: list[str] = []
        #: Extra exact counters fed by hooks: name -> int.
        self.extra: dict[str, int] = {}
        self._extra_lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._states_lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def set_trace(self, trace_id: str) -> None:
        """Trace id for spans opened next on this thread."""
        self._state().trace = trace_id

    def _count(self, name: str, amount: int) -> None:
        with self._extra_lock:
            self.extra[name] = self.extra.get(name, 0) + amount

    def _wrap(self, fn, name: str, hook=None):
        tracer = self
        clock = time.perf_counter_ns
        cap = self.span_cap

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [name, 0, state.next_id]
            state.next_id += 1
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0, 0]
                if parent is None or parent[0] != name:
                    totals[0] += 1
                    totals[2] += duration
                totals[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(state.spans) < cap:
                    state.spans.append((
                        name, started, ended, frame[2],
                        parent[2] if parent is not None else None,
                        state.trace, state.tid,
                    ))
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        targets, self.missing = _targets()
        for owner, attr, span in targets:
            raw = owner.__dict__[attr]
            hook = HOOKS.get((owner.__name__, attr))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, hook))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, span, hook))
            else:
                wrapped = self._wrap(raw, span, hook)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        with self._states_lock:
            for state in self._states:
                state.totals.clear()
                state.spans.clear()
        with self._extra_lock:
            self.extra.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """span name -> [calls, self_ns, total_ns], summed over threads."""
        merged: dict[str, list[int]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_ns, total_ns) in list(state.totals.items()):
                into = merged.setdefault(name, [0, 0, 0])
                into[0] += calls
                into[1] += self_ns
                into[2] += total_ns
        return merged

    def summary(self) -> dict:
        spans = sum(len(s.spans) for s in self._states)
        return {
            "totals": self.totals(),
            "extra": dict(self.extra),
            "missing": list(self.missing),
            "spans_kept": spans,
        }

    def chrome_trace(self) -> dict:
        """Chrome-trace JSON ("X" events, microseconds) of the kept spans."""
        events = []
        for state in self._states:
            for name, start, end, span_id, parent, trace, tid in state.spans:
                events.append({
                    "name": name,
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": {"trace": trace, "span": span_id, "parent": parent},
                })
        events.sort(key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, summary_path: str | None = None, **extra) -> None:
        """Chrome trace to ``path``; summary (plus ``extra``) to ``summary_path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        if summary_path is not None:
            with open(summary_path, "w") as handle:
                json.dump({**self.summary(), **extra}, handle)


# -- exact-count hooks --------------------------------------------------------


def _lanes_from_reads(tracer: Tracer, args, result) -> None:
    tracer._count("kernel.lane_steps", len(args[1]))


def _lanes_uniform(tracer: Tracer, args, result) -> None:
    tracer._count("kernel.lane_steps", len(args[0]))


def _one_lane(tracer: Tracer, args, result) -> None:
    tracer._count("kernel.lane_steps", 1)


HOOKS = {
    ("GridMemSpot", "step_all"): _lanes_from_reads,
    ("GridMemSpot", "step_all_raw"): _lanes_from_reads,
    ("GridMemSpot", "step_all_uniform"): _lanes_uniform,
    ("BatchedMemSpot", "step"): _one_lane,
}


def install_miss_counter(tracer: Tracer) -> None:
    """Count level-1 memo misses: evaluate calls that grew the memo."""
    from repro.core.windowmodel import WindowModel

    traced = WindowModel.__dict__["evaluate"]

    def evaluate(self, *args, **kwargs):
        before = self.cache_entries
        result = traced(self, *args, **kwargs)
        if self.cache_entries != before:
            tracer._count("windowmodel.misses", 1)
        return result

    WindowModel.evaluate = evaluate
    tracer._installed.append((WindowModel, "evaluate", traced))


def store_counts() -> dict[str, float]:
    """The program's own result-store lookup counters (this process)."""
    from repro.obs.metrics import METRICS

    name = "repro_store_requests_total"
    return {
        "store.hits": METRICS.counter_value(name, cache="hit"),
        "store.misses": METRICS.counter_value(name, cache="miss"),
    }


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Per-call cost of one span wrapper around a no-op function."""

    def noop(x):
        return x

    tracer = Tracer(span_cap=0)
    wrapped = tracer._wrap(noop, "noop")
    best = []
    for fn in (noop, wrapped):
        timings = []
        for _ in range(3):
            started = time.perf_counter_ns()
            for i in range(calls):
                fn(i)
            timings.append(time.perf_counter_ns() - started)
        best.append(min(timings))
    return (best[1] - best[0]) / calls
