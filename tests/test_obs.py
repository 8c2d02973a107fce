"""The ``repro.obs`` observability layer: tracing, metrics, SLOs, logs.

Covers the PR 9 acceptance criteria:

- spans parent correctly across nested blocks and propagate across the
  ``X-Repro-Trace`` header into the HTTP service;
- the :class:`TracingObserver` stays out of the engine's observer
  list — enabling it never changes engine checkpoint shape or restore
  compatibility;
- the ``repro.obs.metrics`` registry's exposition passes the strict
  ``tools/check_prom.py`` checker (including the histogram
  bucket-double-count bug that checker caught);
- SLO evaluation: quantile + ratio objectives, ``no_data`` floors,
  threshold overrides, the breach gate, and the rendered Prometheus
  burn-rate rules;
- finished cells/jobs no longer leak PROGRESS broker entries;
- one-line JSON logs carry the active trace id and plain mode stays
  byte-compatible with the pre-obs output.
"""

from __future__ import annotations

import json
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
from repro.errors import ConfigurationError
from repro.obs.log import StructuredLog
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.slo import (
    BREACH,
    DEFAULT_SLOS,
    NO_DATA,
    OK,
    SloSpec,
    evaluate,
    render_alert_rules,
    slo_document,
    with_overrides,
)
from repro.obs.trace import (
    TRACE_HEADER,
    TRACER,
    Tracer,
    TracingObserver,
    chrome_trace,
    read_jsonl,
)


@pytest.fixture
def tracer():
    """A process-global-free tracer, enabled, with a tiny ring."""
    tracer = Tracer()
    tracer.configure(enabled=True, sample_every=1)
    tracer.clear()
    return tracer


class TestTracer:
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

    def test_jsonl_sink_roundtrips(self, tracer, tmp_path):
        sink = tmp_path / "spans.jsonl"
        tracer.configure(sink=str(sink))
        with tracer.span("persisted", level=3):
            pass
        (span,) = list(read_jsonl(str(sink)))
        assert span.name == "persisted"
        assert span.args == {"level": 3}

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
        TRACER.configure(
            enabled=True, sample_every=DEFAULT_SAMPLE_EVERY, ring=windows
        )
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

    def test_counter_total_sums_with_label_filter(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_f_total", "f", status="ok", tenant="a")
        registry.counter_inc("repro_f_total", "f", status="ok", tenant="b")
        registry.counter_inc("repro_f_total", "f", status="failed", tenant="a")
        assert registry.counter_total("repro_f_total") == 3
        assert registry.counter_total("repro_f_total", status="failed") == 1
        assert registry.counter_total("repro_missing_total") == 0

    def test_histogram_quantile_is_conservative_upper_bound(self):
        registry = MetricsRegistry()
        for value in (0.3, 0.4, 0.45, 12.0):
            registry.observe("repro_q_seconds", "q", value)
        # p50 rank 2 of 4 lands in the 0.5 bucket; p99 in the 30 bucket.
        assert registry.histogram_quantile("repro_q_seconds", 0.5) == 0.5
        assert registry.histogram_quantile("repro_q_seconds", 0.99) == 30.0
        assert registry.histogram_quantile("repro_none", 0.5) is None

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
        before_hit = METRICS.counter_total(
            "repro_store_requests_total", cache="hit"
        )
        before_miss = METRICS.counter_total(
            "repro_store_requests_total", cache="miss"
        )
        store = MemoryStore()
        for _ in range(3):
            run_cell(GateSpec(1), store)
        assert METRICS.counter_total(
            "repro_store_requests_total", cache="miss"
        ) == before_miss + 1
        assert METRICS.counter_total(
            "repro_store_requests_total", cache="hit"
        ) == before_hit + 2

    def test_single_flight_counts_led_and_coalesced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        before_led = METRICS.counter_total(
            "repro_store_single_flight_total", outcome="led"
        )
        before_coalesced = METRICS.counter_total(
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
        assert METRICS.counter_total(
            "repro_store_single_flight_total", outcome="led"
        ) == before_led + 1
        assert METRICS.counter_total(
            "repro_store_single_flight_total", outcome="coalesced"
        ) == before_coalesced + 2


class TestSlo:
    def test_quantile_slo_ok_and_breach(self):
        registry = MetricsRegistry()
        spec = SloSpec(
            name="p99", description="d", kind="quantile",
            metric="repro_l_seconds", threshold=1.0,
        )
        (result,) = evaluate(registry, (spec,))
        assert result.status == NO_DATA and result.value is None
        registry.observe("repro_l_seconds", "l", 0.3)
        (result,) = evaluate(registry, (spec,))
        assert result.status == OK and result.value == 0.5
        for _ in range(200):
            registry.observe("repro_l_seconds", "l", 20.0)
        (result,) = evaluate(registry, (spec,))
        assert result.status == BREACH and result.value == 30.0

    def test_ratio_slo_with_min_events_floor(self):
        registry = MetricsRegistry()
        spec = SloSpec(
            name="err", description="d", kind="ratio",
            metric="repro_done_total",
            event_labels=(("status", "failed"),),
            threshold=0.25, min_events=4,
        )
        registry.counter_inc("repro_done_total", "d", status="failed")
        (result,) = evaluate(registry, (spec,))
        assert result.status == NO_DATA  # 1 event < min_events=4
        for _ in range(3):
            registry.counter_inc("repro_done_total", "d", status="completed")
        (result,) = evaluate(registry, (spec,))
        assert result.status == OK and result.value == 0.25
        registry.counter_inc("repro_done_total", "d", status="failed")
        (result,) = evaluate(registry, (spec,))
        assert result.status == BREACH and result.value == 0.4

    def test_ge_direction_floor_objective(self):
        registry = MetricsRegistry()
        spec = SloSpec(
            name="warm", description="d", kind="ratio",
            metric="repro_req_total", event_labels=(("cache", "hit"),),
            direction="ge", threshold=0.5,
        )
        registry.counter_inc("repro_req_total", "r", cache="hit")
        registry.counter_inc("repro_req_total", "r", cache="miss")
        (result,) = evaluate(registry, (spec,))
        assert result.status == OK
        for _ in range(3):
            registry.counter_inc("repro_req_total", "r", cache="miss")
        (result,) = evaluate(registry, (spec,))
        assert result.status == BREACH and result.value == 0.2

    def test_document_counts_breaches(self):
        registry = MetricsRegistry()
        registry.observe("repro_job_latency_seconds", "l", 500.0)
        document = slo_document(registry)
        assert document["status"] == BREACH
        assert document["breaches"] == 1
        by_name = {entry["name"]: entry for entry in document["slos"]}
        assert by_name["p99_job_latency"]["status"] == BREACH
        assert by_name["warm_hit_ratio"]["status"] == NO_DATA

    def test_overrides_validate_names(self):
        overridden = with_overrides(DEFAULT_SLOS, {"p99_job_latency": 7.5})
        by_name = {spec.name: spec for spec in overridden}
        assert by_name["p99_job_latency"].threshold == 7.5
        assert by_name["p99_queue_wait"].threshold == 30.0
        with pytest.raises(ConfigurationError, match="unknown SLO"):
            with_overrides(DEFAULT_SLOS, {"p99_job_latencyy": 1.0})

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", description="d", kind="mean",
                    metric="m", threshold=1.0)
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", description="d", kind="ratio",
                    metric="m", threshold=1.0, direction="gt")

    def test_rendered_rules_cover_every_slo(self):
        text = render_alert_rules()
        assert "groups:" in text
        assert "P99JobLatencyBreach" in text
        assert "JobErrorRateFastBurn" in text
        assert "JobErrorRateSlowBurn" in text
        # ge-direction budget is inverted: 1 - 0.5 threshold.
        assert "WarmHitRatioFastBurn" in text
        assert "> 7.2" in text  # 14.4 * (1 - 0.5)
        assert 'severity: page' in text and 'severity: ticket' in text


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


class TestStructuredLog:
    def test_plain_mode_prints_only_explicit_messages(self, capsys):
        log = StructuredLog()
        log.configure(json_mode=False)
        log.info("service.listening", "listening on :8765", port=8765)
        log.info("job.cell_finished", job="j", cell="c")  # silent
        captured = capsys.readouterr()
        assert captured.out == "listening on :8765\n"
        assert captured.err == ""

    def test_json_mode_emits_one_line_documents(self, capsys):
        log = StructuredLog()
        log.configure(json_mode=True)
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

    def test_json_logs_carry_active_trace_id(self, capsys):
        from repro.obs.trace import TRACER

        log = StructuredLog()
        log.configure(json_mode=True)
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
    def test_slo_route_serves_document(self, traced_service):
        status, document = _get_json(traced_service.url + "/v1/slo")
        assert status == 200
        assert document["status"] in (OK, BREACH)
        names = {entry["name"] for entry in document["slos"]}
        assert {"p99_job_latency", "warm_hit_ratio"} <= names

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

        status, document = _get_json(
            traced_service.url + "/v1/trace/feedface00000001"
        )
        assert status == 200
        trace_ids = {
            event["args"]["trace_id"] for event in document["traceEvents"]
        }
        assert trace_ids == {"feedface00000001"}

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


class TestCli:
    def test_trace_export_from_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        tracer = Tracer()
        tracer.configure(
            enabled=True, sink=str(tmp_path / "spans.jsonl")
        )
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        out = tmp_path / "trace.json"
        code = main([
            "trace", "export",
            "--input", str(tmp_path / "spans.jsonl"),
            "--output", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert {e["name"] for e in document["traceEvents"]} == {
            "outer", "inner"
        }

    def test_trace_export_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["trace", "export"]) == 2
        assert "span source" in capsys.readouterr().err

    def test_slo_rules_prints_prometheus_rules(self, capsys):
        from repro.cli import main

        assert main(["slo", "rules"]) == 0
        out = capsys.readouterr().out
        assert "groups:" in out and "P99JobLatencyBreach" in out

    def test_slo_check_against_live_service(self, traced_service, capsys):
        from repro.cli import main

        code = main(["slo", "check", "--url", traced_service.url, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert out["breaches"] >= 0

    def test_slo_check_synthetic_breach_exits_nonzero(
        self, traced_service, capsys
    ):
        """Tightening warm_hit_ratio to an impossible 1.01 floor must
        flip the gate; prime store traffic first so the ratio has
        enough events to leave ``no_data``."""
        _prime_store()
        from repro.cli import main

        code = main([
            "slo", "check", "--url", traced_service.url,
            "--override", "warm_hit_ratio=1.01", "--json",
        ])
        document = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in document["slos"]}
        if by_name["warm_hit_ratio"]["status"] == NO_DATA:
            pytest.skip("no store traffic reached the global registry")
        assert by_name["warm_hit_ratio"]["status"] == BREACH
        assert document["status"] == BREACH
        assert code == 1

    def test_slo_check_unknown_override_fails_cleanly(
        self, traced_service, capsys
    ):
        from repro.cli import main

        code = main([
            "slo", "check", "--url", traced_service.url,
            "--override", "not_an_slo=1",
        ])
        assert code == 2
        assert "unknown SLO" in capsys.readouterr().err


def _prime_store() -> None:
    """Drive >= min_events store lookups so warm_hit_ratio has data."""
    store = MemoryStore()
    for _ in range(6):
        run_cell(GateSpec(3), store)
        run_cell(GateSpec(4), store)
