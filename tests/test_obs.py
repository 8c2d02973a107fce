"""The ``repro.obs`` observability layer: tracing, metrics, logs.

Covers the PR 9 acceptance criteria:

- spans parent correctly across nested blocks and propagate across the
  ``X-Repro-Trace`` header into the HTTP service;
- the :class:`TracingObserver` stays out of the engine's observer
  list — enabling it never changes engine checkpoint shape or restore
  compatibility;
- the ``repro.obs.metrics`` registry's exposition passes the strict
  ``tools/check_prom.py`` checker (including the histogram
  bucket-double-count bug that checker caught);
- finished, failed and cancelled jobs, and direct cells whose engine
  raises, leave no PROGRESS broker entries;
- one-line JSON logs carry the active trace id and plain mode stays
  byte-compatible with the pre-obs output.
"""

from __future__ import annotations

import argparse
import ast
import json
import pickle
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import check_prom  # noqa: E402

from repro.analysis.specs import Chapter4Spec
from repro.api import ReproService
from repro.campaign import (
    MemoryStore,
    engine_for_spec,
    register_runner,
    run_cell,
    spec_key,
)
from repro.engine.progress import PROGRESS, ProgressBroker
from repro.engine.stepping import SteppingEngine
from repro.errors import SimulationError
from repro.obs.log import StructuredLog
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import (
    DEFAULT_SAMPLE_EVERY,
    TRACE_HEADER,
    TRACER,
    Tracer,
    TracingObserver,
    chrome_trace,
    env_truthy,
)


@pytest.fixture
def tracer():
    """A process-global-free tracer, enabled, with a tiny ring."""
    tracer = Tracer()
    tracer.configure(enabled=True)
    tracer.clear()
    return tracer


class TestTracer:
    def test_repro_trace_switches_tracing_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        tracer = Tracer()
        with tracer.span("on"):
            pass
        assert [span.name for span in tracer.spans()] == ["on"]
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert Tracer().enabled is False

    @pytest.mark.parametrize("value, enabled", [
        ("1", True), ("true", True), (" Yes ", True), ("ON", True),
        (None, False), ("", False), ("no", False), ("2", False),
    ])
    def test_repro_trace_reads_the_shared_truthy_spellings(
        self, value, enabled, monkeypatch
    ):
        """``REPRO_TRACE`` and ``REPRO_LOG_JSON`` read one set of
        spellings; anything else, unset included, leaves them off."""
        if value is None:
            monkeypatch.delenv("REPRO_TRACE", raising=False)
        else:
            monkeypatch.setenv("REPRO_TRACE", value)
        assert env_truthy("REPRO_TRACE") is enabled
        assert Tracer().enabled is enabled

    def test_the_retired_span_file_variable_writes_nothing(
        self, monkeypatch, tmp_path
    ):
        """Spans live only in the in-memory ring: the old
        ``REPRO_TRACE_JSONL`` sink variable is not read."""
        sink = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_JSONL", str(sink))
        tracer = Tracer()
        with tracer.span("kept"):
            pass
        assert [span.name for span in tracer.spans()] == ["kept"]
        assert not sink.exists()

    def test_the_window_stride_ignores_the_retired_sample_variable(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1")
        assert TracingObserver(Tracer()).sample_every == DEFAULT_SAMPLE_EVERY

    def test_spans_pickle_whole_for_pool_workers(self, tracer):
        """A pool worker sends its cell's spans back pickled; each
        arrives with every field, args included."""
        with tracer.span("cell", key="ch4-x"):
            with tracer.span("window", index=0):
                pass
        spans = tracer.spans()
        assert pickle.loads(pickle.dumps(spans)) == spans

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        tracer.configure(enabled=False)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        TracingObserver(tracer).record_window(0, 1e-3, 1e-3, 1e-3)
        assert tracer.spans() == []
        assert tracer.propagation_header() is None

    def test_nested_spans_share_trace_and_parent(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[0].trace_id == spans[1].trace_id
        assert spans[1].parent_id is None

    def test_span_records_error_class_on_exception(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span.args["error"] == "ValueError"

    def test_propagation_header_roundtrip(self, tracer):
        with tracer.span("outer") as outer:
            header = tracer.propagation_header()
            assert header == f"{outer.trace_id}:{outer.span_id}"
        parsed = Tracer.parse_header(header)
        assert parsed == (outer.trace_id, outer.span_id)

    @pytest.mark.parametrize("bad", [
        None, "", "no-colon", "UPPER:abcd", "abcd:", ":abcd",
        "x" * 40 + ":abcd", "abcd:zzzz-not-hex",
    ])
    def test_malformed_headers_are_rejected(self, bad):
        assert Tracer.parse_header(bad) is None

    def test_activate_adopts_remote_context(self, tracer):
        with tracer.activate("feedbeef", "cafe0001"):
            with tracer.span("remote-child") as child:
                assert child.trace_id == "feedbeef"
                assert child.parent_id == "cafe0001"

    def test_ring_is_bounded(self, tracer):
        tracer.configure(ring=16)
        for index in range(50):
            with tracer.span("s", i=index):
                pass
        spans = tracer.spans()
        assert len(spans) == 16
        assert spans[-1].args["i"] == 49

    def test_chrome_trace_shape(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        document = chrome_trace(tracer.spans())
        # Loadable by Perfetto: traceEvents with complete ("X") events,
        # microsecond timestamps, sorted ascending.
        assert json.loads(json.dumps(document)) == document
        events = document["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        assert events[0]["ts"] <= events[1]["ts"]
        assert all(e["dur"] > 0 for e in events)
        assert {e["name"] for e in events} == {"outer", "inner"}


class TestEngineTracing:
    def test_traced_engine_emits_sampled_window_spans(self, tracer):
        spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
        engine = engine_for_spec(spec)
        engine._tracing = TracingObserver(tracer)
        engine._tracing.sample_every = 500
        with tracer.span("cell"):
            engine.step_windows(1200)
        windows = [s for s in tracer.spans() if s.name == "window"]
        assert len(windows) == 3  # windows 0, 500, 1000
        for span in windows:
            assert {"policy_s", "kernel_s", "apply_s"} <= set(span.args)
            assert span.trace_id == tracer.spans()[0].trace_id

    def test_process_tracing_keeps_payload_bytes_and_samples_every_32nd(
        self,
    ):
        """With process-wide tracing on at the default 1-in-32 sampling,
        the engine times only windows 0, 32, 64, ... and the encoded
        payload is byte-identical to an untraced run."""
        from repro.campaign import engine_for_spec, runner_for
        from repro.obs.trace import DEFAULT_RING, DEFAULT_SAMPLE_EVERY

        spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
        encode = runner_for(spec.kind).encode

        def payload_bytes() -> tuple[bytes, int]:
            engine = engine_for_spec(spec)
            result = engine.run_to_completion()
            return json.dumps(encode(result), sort_keys=True).encode(), (
                engine.windows
            )

        untraced, windows = payload_bytes()
        TRACER.clear()
        TRACER.configure(enabled=True, ring=windows)
        try:
            traced, _ = payload_bytes()
            spans = [s for s in TRACER.spans() if s.name == "window"]
        finally:
            TRACER.configure(enabled=False, ring=DEFAULT_RING)
            TRACER.clear()
        assert traced == untraced
        assert [s.args["index"] for s in spans] == list(
            range(0, windows, DEFAULT_SAMPLE_EVERY)
        )
        assert all(
            s.args["sampled_every"] == DEFAULT_SAMPLE_EVERY for s in spans
        )

    def test_tracing_observer_is_checkpoint_transparent(self):
        """A checkpoint taken with tracing on restores with it off.

        The engine holds the recorder in ``_tracing`` only, never in
        its observer list, so it never appears in the checkpoint's
        observer states: enabling tracing can never strand a
        checkpoint (or change its shape).
        """
        spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
        plain = engine_for_spec(spec)
        plain.step_windows(300)
        baseline = plain.checkpoint().to_dict()

        traced = engine_for_spec(spec)
        traced._tracing = TracingObserver(Tracer())
        traced._tracing.sample_every = 10
        traced.step_windows(300)
        state = traced.checkpoint()
        assert state.to_dict() == baseline

        # Restore into a traced engine from an untraced checkpoint.
        resumed = engine_for_spec(spec)
        resumed._tracing = TracingObserver(Tracer())
        resumed._tracing.sample_every = 10
        resumed.restore(state)
        resumed.step_windows(100)
        plain.step_windows(100)
        assert resumed.checkpoint().to_dict() == plain.checkpoint().to_dict()


class TestPoolTracing:
    SPECS = [Chapter4Spec(mix="W1", policy=policy, copies=1) for policy in ("ts", "bw")]

    @staticmethod
    def _traced_campaign(backend) -> list:
        """Spans of one root-spanned 2-cell campaign's trace."""
        from repro.campaign import Campaign, NullStore
        from repro.obs.trace import DEFAULT_RING

        TRACER.clear()
        TRACER.configure(enabled=True, ring=100_000)
        try:
            with TRACER.span("root") as root:
                Campaign(
                    TestPoolTracing.SPECS, store=NullStore(), backend=backend
                ).run()
            return TRACER.spans(root.trace_id)
        finally:
            TRACER.configure(enabled=False, ring=DEFAULT_RING)
            TRACER.clear()

    def test_pool_workers_join_the_callers_trace(self):
        """A pooled campaign records the same span names, and one cell
        span per cell, under the caller's trace as a serial one."""
        from repro.cluster import LocalProcessBackend, SerialBackend

        serial = self._traced_campaign(SerialBackend())
        with LocalProcessBackend(2) as pool:
            pooled = self._traced_campaign(pool)

        def cells(spans):
            return sum(span.name == "cell" for span in spans)

        assert {span.name for span in pooled} == {span.name for span in serial}
        assert cells(pooled) == cells(serial) == 2
        assert len(pooled) == len(serial)

    def test_untraced_pool_sends_no_trace_context(self, monkeypatch):
        from concurrent.futures import Future

        from repro.campaign import NullStore
        from repro.cluster import LocalProcessBackend
        from repro.cluster.backends import _pool_worker

        submitted = []

        class Pool:
            def submit(self, work, *args):
                submitted.append((work, args))
                future = Future()
                future.set_result(work(*args))
                return future

        backend = LocalProcessBackend(1)
        monkeypatch.setattr(backend, "_ensure_pool", Pool)
        store = NullStore()
        (outcome,) = backend.run_cells(self.SPECS[:1], store)
        assert submitted == [(_pool_worker, (self.SPECS[0], store))]
        assert outcome.result.runtime_s > 0


class TestMetricsMoved:
    def test_histogram_buckets_are_not_double_counted(self):
        """The bug tools/check_prom.py caught: ``observe`` stored
        cumulative bucket counts and ``render_text`` cumulated again,
        so every exposition overstated the distribution's spread."""
        registry = MetricsRegistry()
        registry.observe("repro_t_seconds", "t", 0.3)
        registry.observe("repro_t_seconds", "t", 12.0)
        text = registry.render_text()
        assert 'le="0.5"} 1' in text
        assert 'le="10"} 1' in text  # not 2, 3, 4... creeping upward
        assert 'le="30"} 2' in text
        assert 'le="+Inf"} 2' in text
        assert "repro_t_seconds_count 2" in text

    def test_counter_value_reads_one_exact_label_set(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_f_total", "f", status="ok", tenant="a")
        registry.counter_inc("repro_f_total", "f", tenant="a", status="ok")
        registry.counter_inc("repro_f_total", "f", status="failed", tenant="a")
        assert registry.counter_value(
            "repro_f_total", status="ok", tenant="a"
        ) == 2
        assert registry.counter_value(
            "repro_f_total", tenant="a", status="failed"
        ) == 1
        assert registry.counter_value(
            "repro_f_total", status="ok", tenant="b"
        ) == 0
        assert registry.counter_value("repro_missing_total") == 0

    def test_histogram_stats_sums_the_matching_series(self):
        registry = MetricsRegistry()
        registry.observe("repro_q_seconds", "q", 0.3, route="/a")
        registry.observe("repro_q_seconds", "q", 12.0, route="/a")
        registry.observe("repro_q_seconds", "q", 0.4, route="/b")
        count, total, buckets = registry.histogram_stats("repro_q_seconds")
        assert count == 3 and total == pytest.approx(12.7)
        assert sum(buckets) == 3
        count, total, buckets = registry.histogram_stats(
            "repro_q_seconds", route="/a"
        )
        assert count == 2 and total == pytest.approx(12.3)
        assert registry.histogram_stats(
            "repro_q_seconds", route="/c"
        )[:2] == (0, 0.0)
        assert registry.histogram_stats("repro_none") == (0, 0.0, [])

    def test_a_family_keeps_its_kind_and_label_names(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_k_total", "k", tenant="a")
        with pytest.raises(ValueError, match="re-registered"):
            registry.counter_inc("repro_k_total", "k", route="/a")
        with pytest.raises(ValueError, match="re-registered"):
            registry.gauge_set("repro_k_total", "k", 1.0, tenant="a")
        assert registry.counter_value("repro_k_total", tenant="a") == 1

    def test_exposition_passes_strict_checker(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_c_total", "c", path='we"ird\\x\n')
        registry.gauge_set("repro_g", "g", 3)
        registry.observe("repro_h_seconds", "h", 0.3, route="/v1/x")
        registry.observe("repro_h_seconds", "h", 7.7, route="/v1/x")
        assert check_prom.check_text(registry.render_text()) == []

    def test_checker_flags_corrupted_expositions(self):
        good = (
            "# HELP repro_c_total c\n# TYPE repro_c_total counter\n"
            "repro_c_total 1\n"
        )
        assert check_prom.check_text(good) == []
        assert check_prom.check_text(good.replace("# HELP", "# XELP"))
        # TYPE before HELP.
        swapped = (
            "# TYPE repro_c_total counter\n# HELP repro_c_total c\n"
            "repro_c_total 1\n"
        )
        assert any("precede" in e for e in check_prom.check_text(swapped))
        # +Inf bucket disagreeing with _count.
        histogram = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 1\nrepro_h_bucket{le="+Inf"} 1\n'
            "repro_h_sum 0.5\nrepro_h_count 2\n"
        )
        assert any(
            "_count" in e for e in check_prom.check_text(histogram)
        )
        # Unescaped backslash in a label value.
        assert any(
            "illegal escape" in e
            for e in check_prom.check_text(
                "# HELP x_total x\n# TYPE x_total counter\n"
                'x_total{a="b\\path"} 1\n'
            )
        )


@dataclass(frozen=True)
class GateSpec:
    """A synthetic cell whose compute waits on ``_GATES[value]`` if set."""

    kind: ClassVar[str] = "test-obs-gate"

    value: int = 1

    def key(self) -> str:
        return spec_key(self)


_GATES: dict = {}


class _GateEngine:
    windows = 1

    def __init__(self, spec: GateSpec) -> None:
        self.spec = spec

    def run_to_completion(self) -> dict:
        gate = _GATES.get(self.spec.value)
        if gate is not None:
            gate.wait(timeout=10)
        return {"v": self.spec.value}


register_runner("test-obs-gate", _GateEngine, encode=dict, decode=dict)


class TestStoreMetrics:
    def test_lookups_count_hits_and_misses(self):
        before_hit = METRICS.counter_value(
            "repro_store_requests_total", cache="hit"
        )
        before_miss = METRICS.counter_value(
            "repro_store_requests_total", cache="miss"
        )
        computed = METRICS.histogram_stats(
            "repro_cell_compute_seconds", kind=GateSpec.kind
        )[0]
        store = MemoryStore()
        for _ in range(3):
            run_cell(GateSpec(1), store)
        # Only the miss computes, and its wall time is observed.
        assert METRICS.histogram_stats(
            "repro_cell_compute_seconds", kind=GateSpec.kind
        )[0] == computed + 1
        assert METRICS.counter_value(
            "repro_store_requests_total", cache="miss"
        ) == before_miss + 1
        assert METRICS.counter_value(
            "repro_store_requests_total", cache="hit"
        ) == before_hit + 2

    def test_single_flight_counts_led_and_coalesced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        before_led = METRICS.counter_value(
            "repro_store_single_flight_total", outcome="led"
        )
        before_coalesced = METRICS.counter_value(
            "repro_store_single_flight_total", outcome="coalesced"
        )
        gate = threading.Barrier(3)
        release = threading.Event()
        monkeypatch.setitem(_GATES, 2, release)

        def racer():
            gate.wait()
            run_cell(GateSpec(2), None)

        pool = [threading.Thread(target=racer) for _ in range(3)]
        for thread in pool:
            thread.start()
        # Leader is blocked inside its compute; give the other two time
        # to reach the flight table as followers, then release.
        time.sleep(0.2)
        release.set()
        for thread in pool:
            thread.join(timeout=10)
        assert METRICS.counter_value(
            "repro_store_single_flight_total", outcome="led"
        ) == before_led + 1
        assert METRICS.counter_value(
            "repro_store_single_flight_total", outcome="coalesced"
        ) == before_coalesced + 2


class TestProgressPruning:
    def test_forget_and_forget_prefix(self):
        broker = ProgressBroker()
        with broker.track("job-1/cell-a"):
            broker.publish({"w": 1})
        with broker.track("job-1/cell-b"):
            broker.publish({"w": 2})
        with broker.track("job-2/cell-a"):
            broker.publish({"w": 3})
        assert broker.forget("job-1/cell-a") is True
        assert broker.forget("job-1/cell-a") is False
        assert broker.forget_prefix("job-1/") == 1
        assert set(broker.snapshot()) == {"job-2/cell-a"}
        broker.clear()

    def test_finished_runs_past_the_bound_go_oldest_first(self):
        """Past 64 finished runs the oldest go; a run still going is
        never evicted, however old."""
        broker = ProgressBroker()
        with broker.track("active"):
            broker.publish({"windows": 1, "done": False})
        for index in range(70):
            with broker.track(f"run-{index}"):
                broker.publish({"windows": 1, "done": True})
        labels = set(broker.snapshot())
        assert "active" in labels
        assert labels - {"active"} == {f"run-{i}" for i in range(6, 70)}

    def test_an_untracked_publish_is_dropped(self):
        broker = ProgressBroker()
        broker.publish({"windows": 1, "done": False})
        assert broker.snapshot() == {}

    def test_a_direct_cell_publishes_no_progress(self):
        PROGRESS.clear()
        run_cell(Chapter4Spec(mix="W1", policy="ts", copies=1), MemoryStore())
        assert PROGRESS.snapshot() == {}

    def test_a_tracked_direct_cell_publishes_under_the_callers_label(self):
        PROGRESS.clear()
        try:
            with PROGRESS.track("caller"):
                run_cell(
                    Chapter4Spec(mix="W1", policy="ts", copies=1),
                    MemoryStore(),
                )
            (label,) = PROGRESS.snapshot()
            assert label == "caller"
            assert PROGRESS.snapshot()["caller"]["done"] is True
        finally:
            PROGRESS.clear()

    def test_completed_job_leaves_no_progress_entries(self, tmp_path):
        from repro.jobs import JobsManager

        store = MemoryStore()
        manager = JobsManager(
            tmp_path / "jobs", store=store, window_slice=200
        )
        manager.start()
        try:
            document = manager.submit_body({"request": {
                "type": "simulate", "mix": "W1", "policy": "ts", "copies": 1,
            }})
            job_id = document["job"]["id"]
            deadline = time.monotonic() + 120
            while not manager.queue.get(job_id).terminal:
                assert time.monotonic() < deadline, "job hung"
                time.sleep(0.01)
            assert manager.queue.get(job_id).status == "completed"
        finally:
            manager.stop(drain=False)
        leaked = [
            label for label in PROGRESS.snapshot()
            if label.startswith(f"{job_id}/")
        ]
        assert leaked == []

    def test_cancelled_job_leaves_no_progress_entries(self, tmp_path):
        from repro.jobs import JobsManager

        manager = JobsManager(
            tmp_path / "jobs", store=MemoryStore(), window_slice=100
        )
        manager.start()
        try:
            document = manager.submit_body({"request": {
                "type": "simulate", "mix": "W1", "policy": "ts", "copies": 1,
            }})
            job_id = document["job"]["id"]
            deadline = time.monotonic() + 60
            while manager.queue.get(job_id).status == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            manager.cancel(job_id)
            while not manager.queue.get(job_id).terminal:
                assert time.monotonic() < deadline, "cancel hung"
                time.sleep(0.01)
        finally:
            manager.stop(drain=False)
        leaked = [
            label for label in PROGRESS.snapshot()
            if label.startswith(f"{job_id}/")
        ]
        assert leaked == []


    @staticmethod
    def _engines_raise(monkeypatch) -> None:
        """Every engine raises at its finish, after its progress
        observer has published the run as not done."""

        def finish(engine):
            raise SimulationError("engine failed at finish")

        monkeypatch.setattr(SteppingEngine, "finish", finish)

    def test_a_direct_cell_whose_engine_raises_leaves_no_entry(
        self, monkeypatch
    ):
        """A direct cell runs unlabelled, so an engine that raises
        before it publishes ``done`` leaves nothing the bounded
        eviction would never reach."""
        self._engines_raise(monkeypatch)
        PROGRESS.clear()
        spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
        with pytest.raises(SimulationError):
            run_cell(spec, MemoryStore())
        assert PROGRESS.snapshot() == {}

    def test_a_failed_job_leaves_no_progress_entries(
        self, tmp_path, monkeypatch
    ):
        from repro.jobs import JobsManager

        self._engines_raise(monkeypatch)
        manager = JobsManager(
            tmp_path / "jobs", store=MemoryStore(), window_slice=200
        )
        manager.start()
        try:
            document = manager.submit_body({"request": {
                "type": "simulate", "mix": "W1", "policy": "ts", "copies": 1,
            }})
            job_id = document["job"]["id"]
            deadline = time.monotonic() + 120
            while not manager.queue.get(job_id).terminal:
                assert time.monotonic() < deadline, "job hung"
                time.sleep(0.01)
            record = manager.queue.get(job_id)
        finally:
            manager.stop(drain=False)
        assert record.status == "failed"
        assert "engine failed at finish" in record.error
        leaked = [
            label for label in PROGRESS.snapshot()
            if label.startswith(f"{job_id}/")
        ]
        assert leaked == []


class TestStructuredLog:
    def test_plain_mode_prints_only_explicit_messages(self, capsys):
        log = StructuredLog()
        log.json_mode = False
        log.info("service.listening", "listening on :8765", port=8765)
        log.info("job.cell_finished", job="j", cell="c")  # silent
        captured = capsys.readouterr()
        assert captured.out == "listening on :8765\n"
        assert captured.err == ""

    def test_repro_log_json_picks_the_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_JSON", raising=False)
        assert StructuredLog().json_mode is False
        monkeypatch.setenv("REPRO_LOG_JSON", "1")
        assert StructuredLog().json_mode is True

    def test_json_mode_emits_one_line_documents(self, capsys):
        log = StructuredLog()
        log.json_mode = True
        log.warning("jobs.requeued", job="j0", requeued=3)
        log.error("job.failed", job="j1")
        captured = capsys.readouterr()
        assert captured.out == ""
        line, error_line = captured.err.strip().splitlines()
        assert json.loads(error_line)["level"] == "error"
        document = json.loads(line)
        assert document["event"] == "jobs.requeued"
        assert document["level"] == "warning"
        assert document["job"] == "j0"
        assert document["requeued"] == 3
        assert "ts" in document

    def test_json_logs_carry_active_trace_id(self, capsys, monkeypatch):
        from repro.obs.trace import TRACER

        monkeypatch.setenv("REPRO_LOG_JSON", "1")
        log = StructuredLog()
        TRACER.configure(enabled=True)
        try:
            with TRACER.span("op") as span:
                log.info("inside", step=1)
        finally:
            TRACER.configure(enabled=False)
            TRACER.clear()
        document = json.loads(capsys.readouterr().err.strip())
        assert document["trace_id"] == span.trace_id


@pytest.fixture(scope="module")
def traced_service():
    """A threaded service with tracing enabled for the trace routes."""
    from repro.obs.trace import TRACER

    TRACER.configure(enabled=True)
    TRACER.clear()
    svc = ReproService(port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)
    TRACER.configure(enabled=False)
    TRACER.clear()


def _get_json(url: str):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _wait_for_spans(trace_id: str, timeout: float = 2.0):
    """Poll the ring briefly: the handler records its span in __exit__
    *after* writing the response, so the client can observe the reply a
    hair before the span lands."""
    deadline = time.monotonic() + timeout
    while True:
        spans = TRACER.spans(trace_id)
        if spans or time.monotonic() >= deadline:
            return spans
        time.sleep(0.01)


class TestServiceRoutes:
    def test_http_spans_join_the_callers_trace(self, traced_service):
        from repro.obs.trace import TRACER

        request = urllib.request.Request(
            traced_service.url + "/v1/simulate?mix=W1&policy=ts&copies=1",
            headers={TRACE_HEADER: "feedface00000001:abcd000000000001"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
        spans = _wait_for_spans("feedface00000001")
        assert spans, "no spans joined the propagated trace"
        http = [s for s in spans if s.name == "http"]
        assert http and http[0].parent_id == "abcd000000000001"
        assert http[0].args["route"] == "/v1/simulate"

    def test_trace_route_answers_one_requests_chrome_trace(
        self, traced_service
    ):
        trace_id = "feedface00000002"
        request = urllib.request.Request(
            traced_service.url + "/v1/simulate?mix=W1&policy=ts&copies=1",
            headers={TRACE_HEADER: f"{trace_id}:abcd000000000002"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
        assert _wait_for_spans(trace_id)
        status, document = _get_json(
            traced_service.url + f"/v1/trace/{trace_id}"
        )
        assert status == 200
        events = document["traceEvents"]
        assert {event["args"]["trace_id"] for event in events} == {trace_id}
        assert {event["ph"] for event in events} == {"X"}
        assert "http" in {event["name"] for event in events}

    def test_unknown_trace_is_404(self, traced_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                traced_service.url + "/v1/trace/deadbeef00000000"
            )
        assert excinfo.value.code == 404

    def test_metrics_route_passes_strict_checker(self, traced_service):
        with urllib.request.urlopen(traced_service.url + "/metrics") as resp:
            text = resp.read().decode()
        assert check_prom.check_text(text) == [], (
            check_prom.check_text(text)
        )


# ---------------------------------------------------------------------------
# README "Observability": one table row per kept surface
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

#: The registry calls whose first argument names a metric family.
_METRIC_CALLS = ("counter_inc", "gauge_set", "observe")


def _table_rows() -> list[tuple[list[str], str]]:
    """``(surfaces, test node id)`` of each row of the table under
    README's "Observability" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Observability\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        surface, _, test = line.strip("|").split("|")
        rows.append((re.findall(r"`([^`]+)`", surface), test.strip(" `")))
    return rows


def _registered_families() -> set[str]:
    """The first argument of every registry call under ``src/repro``
    outside the registry itself: a string, or the loop variable of a
    ``for`` over a literal tuple of rows."""
    families = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        if path.name == "metrics.py" and path.parent.name == "obs":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loops: dict[str, list] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
                for index, target in enumerate(node.target.elts):
                    try:
                        loops[target.id] = [
                            ast.literal_eval(row.elts[index])
                            for row in node.iter.elts
                        ]
                    except (AttributeError, ValueError):
                        pass
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_CALLS
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant):
                families.add(first.value)
            else:
                assert getattr(first, "id", None) in loops, (
                    f"{path}:{node.lineno}: a metric family that is neither "
                    "a string nor a loop over literal names"
                )
                families.update(loops[first.id])
    return families


def _string_constants() -> set[str]:
    """Every string literal in code under ``src/repro``; a docstring
    (a string standing alone as a statement) reads nothing."""
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        alone = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
        }
        found.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in alone
        )
    return found


def _cli_has(words: list[str]) -> bool:
    """Whether ``repro <words...>`` is a command of the CLI parser."""
    from repro.cli import _build_parser

    parser = _build_parser()
    for word in words:
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if word not in commands.choices:
            return False
        parser = commands.choices[word]
    return True


def _test_exists(node_id: str) -> bool:
    """Whether a ``path::[Class::]test`` node id names a test function."""
    path, *names = node_id.split("[", 1)[0].split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return bool(names) and names[-1].startswith("test_")


def test_the_observability_table_matches_the_code():
    """Every metric family the code registers has one row, every row
    names a surface that exists, and every row's test resolves."""
    from repro.api.service import _ROUTES

    rows = _table_rows()
    surfaces = [surface for names, _ in rows for surface in names]
    assert len(surfaces) == len(set(surfaces)), "a surface has two rows"
    families = _registered_families()
    assert sorted(families - set(surfaces)) == []
    constants = _string_constants()
    for surface in surfaces:
        method, _, path = surface.partition(" ")
        if method in ("GET", "POST"):
            assert method in _ROUTES.get(path, {}), surface
        elif method == "repro":
            assert _cli_has(path.split()), surface
        elif surface.startswith("repro_"):
            assert surface in families, surface
        elif surface.startswith(("REPRO_", "X-")):
            assert surface in constants, surface
        else:
            raise AssertionError(f"{surface!r} is no kind of surface")
    for names, node_id in rows:
        assert _test_exists(node_id), (names, node_id)
