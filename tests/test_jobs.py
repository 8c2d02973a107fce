"""The jobs service: persistence, scheduling, quotas, metrics, recovery.

Unit layers (store/queue/tenancy/metrics) run against fakes and tmp
dirs; integration layers drive a real ``JobsManager`` in-process and —
for the crash-recovery acceptance case — an actual ``python -m repro
serve --jobs`` subprocess that gets SIGKILLed mid-job and restarted.

The acceptance criteria covered here:

- a killed-and-restarted server resumes queued AND running jobs from
  their on-disk records (the running one from its last window-slice
  checkpoint, not from zero);
- a higher-priority submit preempts the running job at a window-slice
  boundary, and the preempted job later resumes and completes;
- quota exhaustion answers a structured 429 with ``retry_after_s``;
- ``/metrics`` reports queue depth and per-tenant latency histograms;
- a warm job's result envelope is byte-identical to the equivalent
  warm CLI ``--json`` run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import ReproClient, ReproService, SimulateRequest
from repro.api.http import ServiceError
from repro.api.envelope import SCHEMA_VERSION, dumps_canonical
from repro.api.requests import request_from_dict
from repro.campaign import MemoryStore
from repro.cli import main
from repro.cluster.fleet import await_port_file
from repro.engine.progress import PROGRESS, ProgressBroker
from repro.errors import (
    ClusterError,
    ConfigurationError,
    ConflictError,
    ReproError,
)
from repro.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    JobRecord,
    JobScheduler,
    JobsClient,
    JobsManager,
    JobStore,
    MetricsRegistry,
    QuotaExceeded,
    QuotaManager,
    TenantPolicy,
    TokenBucket,
    expand_job_request,
    job_progress_label,
)
from repro.obs.metrics import OVERFLOW_LABEL
from repro.obs.trace import TRACER

#: The workhorse request: one cold ch4 cell, ~0.3 s of compute —
#: thousands of windows, so small window slices yield many preemption
#: points.
FAST_REQUEST = {"type": "simulate", "mix": "W1", "policy": "ts", "copies": 1}


def _wait_until(predicate, timeout_s: float = 30.0, interval_s: float = 0.005):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"condition not reached within {timeout_s}s")


def _event_names(record: JobRecord) -> list[str]:
    return [event["event"] for event in record.events]


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


class TestJobStore:
    def test_record_round_trips_through_disk(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(
            job_id="job-abc",
            tenant="alice",
            request=dict(FAST_REQUEST),
            priority=7,
            status=RUNNING,
            submit_seq=3,
            created_s=1.5,
            started_s=2.0,
            cells_total=2,
            cells_done=1,
            cell_states={"ch4-xyz": {"windows": 100}},
            results=[{"kind": "ch4"}],
            preemptions=2,
        )
        record.add_event("queued")
        store.save(record)
        loaded = store.load("job-abc")
        assert loaded is not None
        assert loaded.to_dict() == record.to_dict()

    def test_load_rejects_garbage_and_foreign_files(self, tmp_path):
        store = JobStore(tmp_path)
        (tmp_path / "torn.json").write_text('{"format": "repro-job-re')
        (tmp_path / "other.json").write_text('{"format": "not-a-job"}')
        assert store.load("torn") is None
        assert store.load("other") is None
        assert list(store.iter_records()) == []

    @pytest.mark.parametrize(
        "field,value",
        [
            ("job_id", 5),
            ("tenant", None),
            ("tenant", "<missing>"),
            ("request", "simulate"),
            ("priority", "high"),
            ("priority", 1.5),
            ("status", "paused"),
            ("submit_seq", None),
            ("submit_seq", -1),
            ("created_s", "now"),
            ("started_s", float("nan")),
            ("finished_s", True),
            ("cells_total", "2"),
            ("cells_done", True),
            ("cell_states", []),
            ("cell_states", {"ch4-key": 5}),
            ("results", {}),
            ("preemptions", 0.5),
            ("cancel_requested", "yes"),
            ("error", 404),
            ("trace", 7),
            ("events", 5),
            ("events", [1]),
        ],
    )
    def test_record_with_a_mistyped_field_is_unreadable(
        self, tmp_path, field, value, capsys
    ):
        """Regression: a record with one mistyped field loaded, and
        ``recover()`` then raised TypeError ordering it, so ``serve
        --jobs`` could not start.  Such a record is now unreadable, like
        one with an unknown status, and the rest of the queue recovers."""
        store = JobStore(tmp_path)
        for job_id in ("job-good", "job-bad"):
            store.save(
                JobRecord(job_id=job_id, tenant="t", request=dict(FAST_REQUEST))
            )
        path = tmp_path / "job-bad.json"
        document = json.loads(path.read_text())
        if value == "<missing>":
            del document["job"][field]
        else:
            document["job"][field] = value
        path.write_text(json.dumps(document))
        assert store.load("job-bad") is None
        queue = JobQueue(tmp_path)
        assert queue.recover() == {
            "requeued": 1, "terminal": 0, "unreadable": 1
        }
        assert queue.next_ready(timeout_s=0).job_id == "job-good"
        # The skipped record is named in the log and left on disk.
        assert f"skipping unreadable job record {path}" in capsys.readouterr().out
        assert path.exists()

    def test_malformed_job_ids_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.load("../escape")
        with pytest.raises(ConfigurationError):
            store.load(".hidden")

    def test_sweep_tmp_removes_crashed_writer_leftovers(self, tmp_path):
        store = JobStore(tmp_path)
        (tmp_path / "job-x.json.tmp.123.456.1").write_text("{")
        assert store.sweep_tmp() == 1
        assert list(tmp_path.glob("*.tmp.*")) == []


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_priority_then_fifo_ordering(self, tmp_path):
        queue = JobQueue(tmp_path)
        low_first = queue.submit("t", FAST_REQUEST, priority=0)
        low_second = queue.submit("t", FAST_REQUEST, priority=0)
        high = queue.submit("t", FAST_REQUEST, priority=5)
        order = [queue.next_ready(timeout_s=0).job_id for _ in range(3)]
        assert order == [high.job_id, low_first.job_id, low_second.job_id]
        assert queue.next_ready(timeout_s=0) is None

    def test_requeue_keeps_original_submit_seq(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit("t", FAST_REQUEST, priority=0)
        running = queue.next_ready(timeout_s=0)
        assert running.job_id == first.job_id
        later = queue.submit("t", FAST_REQUEST, priority=0)
        queue.requeue(running, event="preempted")
        # The preempted job resumes ahead of the later same-priority
        # arrival because it kept its original sequence number.
        assert queue.next_ready(timeout_s=0).job_id == first.job_id
        assert queue.next_ready(timeout_s=0).job_id == later.job_id

    def test_has_queued_higher_than(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit("t", FAST_REQUEST, priority=3)
        assert queue.has_queued_higher_than(0)
        assert not queue.has_queued_higher_than(3)

    def test_cancel_queued_is_immediate_and_skipped_at_pop(self, tmp_path):
        queue = JobQueue(tmp_path)
        record = queue.submit("t", FAST_REQUEST)
        cancelled = queue.request_cancel(record.job_id)
        assert cancelled.status == CANCELLED
        assert queue.next_ready(timeout_s=0) is None
        # Idempotent on terminal jobs.
        assert queue.request_cancel(record.job_id).status == CANCELLED

    def test_recover_requeues_running_with_checkpoints(self, tmp_path):
        queue = JobQueue(tmp_path)
        record = queue.submit("t", FAST_REQUEST, priority=2)
        popped = queue.next_ready(timeout_s=0)
        popped.cell_states["ch4-key"] = {"windows": 500}
        queue.persist(popped)
        # A fresh queue over the same directory models the restarted
        # process: the running job comes back queued, checkpoint intact.
        revived = JobQueue(tmp_path)
        counts = revived.recover()
        assert counts == {"requeued": 1, "terminal": 0, "unreadable": 0}
        resumed = revived.next_ready(timeout_s=0)
        assert resumed.job_id == record.job_id
        assert resumed.cell_states == {"ch4-key": {"windows": 500}}
        assert "recovered" in _event_names(resumed)

    def test_recover_skips_terminal_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        record = queue.submit("t", FAST_REQUEST)
        record.status = COMPLETED
        queue.persist(record)
        revived = JobQueue(tmp_path)
        assert revived.recover() == {
            "requeued": 0, "terminal": 1, "unreadable": 0
        }
        assert revived.next_ready(timeout_s=0) is None


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTenancy:
    def test_token_bucket_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=clock)
        assert bucket.take() and bucket.take()
        assert not bucket.take()
        assert bucket.seconds_until_token() == pytest.approx(0.5)
        clock.now += 0.5
        assert bucket.take()

    def test_quota_max_active_and_rate_reasons(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantPolicy(max_active=1, rate_per_s=1.0, burst=2), clock=clock
        )
        quotas.admit("alice", active_jobs=0)
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.admit("alice", active_jobs=1)
        assert excinfo.value.reason == "max_active"
        assert excinfo.value.tenant == "alice"
        quotas.admit("alice", active_jobs=0)  # second burst token
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.admit("alice", active_jobs=0)
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after_s == pytest.approx(1.0)

    def test_per_tenant_overrides(self):
        quotas = QuotaManager(
            TenantPolicy(max_active=8),
            {"batch": TenantPolicy(max_active=1)},
        )
        assert quotas.policy_for("batch").max_active == 1
        assert quotas.policy_for("anyone-else").max_active == 8

    def test_tenant_tracking_is_bounded(self):
        clock = FakeClock()
        quotas = QuotaManager(clock=clock, max_tenants=2)
        for name in ("a", "b", "c", "d"):
            quotas.admit(name, active_jobs=0)
        # Beyond max_tenants, strangers share the overflow bucket
        # instead of growing the dict without bound.
        assert len(quotas.usage()) <= 3  # a, b, _overflow


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_text_rendering(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_test_total", "help text", tenant="t1")
        registry.counter_inc("repro_test_total", "help text", tenant="t1")
        registry.gauge_set("repro_test_depth", "depth", 3)
        registry.observe("repro_test_seconds", "latency", 0.05, tenant="t1")
        text = registry.render_text()
        assert '# TYPE repro_test_total counter' in text
        assert 'repro_test_total{tenant="t1"} 2' in text
        assert "repro_test_depth 3" in text
        assert '# TYPE repro_test_seconds histogram' in text
        assert 'le="+Inf"' in text
        assert 'repro_test_seconds_count{tenant="t1"} 1' in text

    def test_json_rendering_mirrors_series(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_test_total", "help", tenant="t1")
        document = registry.render_json()
        by_name = {metric["name"]: metric for metric in document}
        assert by_name["repro_test_total"]["type"] == "counter"
        assert by_name["repro_test_total"]["series"][0]["value"] == 1

    def test_label_cardinality_is_bounded(self):
        registry = MetricsRegistry()
        for index in range(200):
            registry.counter_inc(
                "repro_card_total", "help", tenant=f"tenant-{index}"
            )
        text = registry.render_text()
        series_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_card_total{")
        ]
        assert len(series_lines) <= 65
        assert registry.counter_value(
            "repro_card_total", tenant=OVERFLOW_LABEL
        ) > 0

    def test_counter_value_reads_back(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_x_total", "help", 2.5)
        assert registry.counter_value("repro_x_total") == 2.5
        assert registry.counter_value("repro_missing_total") == 0.0


# ---------------------------------------------------------------------------
# progress broker isolation
# ---------------------------------------------------------------------------


class TestProgressIsolation:
    def test_two_concurrent_tracked_runs_never_cross_streams(self):
        broker = ProgressBroker()
        errors: list[str] = []

        def run(label: str, windows: int) -> None:
            with broker.track(label):
                for step in range(1, windows + 1):
                    broker.publish({"windows": step, "done": False})
                    seen = broker.snapshot(label)[label]
                    if seen["windows"] != step:
                        errors.append(
                            f"{label} saw {seen['windows']} != {step}"
                        )
                broker.publish({"windows": windows, "done": True})

        threads = [
            threading.Thread(target=run, args=("campaign-a", 400)),
            threading.Thread(target=run, args=("campaign-b", 300)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        snapshot = broker.snapshot()
        assert snapshot["campaign-a"] == {"windows": 400, "done": True}
        assert snapshot["campaign-b"] == {"windows": 300, "done": True}

    def test_two_concurrent_campaign_cells_publish_under_own_labels(self):
        """Two real cells computed concurrently stay label-isolated."""
        results: dict[str, object] = {}

        def run_cell(policy: str) -> None:
            client = ReproClient(store=MemoryStore())
            request = SimulateRequest(mix="W1", policy=policy, copies=1)
            results[policy] = client.simulate(request)

        threads = [
            threading.Thread(target=run_cell, args=(policy,))
            for policy in ("ts", "acg")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        keys = {results[p].provenance.cache_key for p in ("ts", "acg")}
        assert len(keys) == 2
        snapshot = PROGRESS.snapshot()
        for key in keys:
            assert snapshot[key]["done"] is True

    def test_job_progress_labels_are_namespaced_per_job(self):
        assert job_progress_label("job-1", "ch4-k") == "job-1/ch4-k"
        assert job_progress_label("job-2", "ch4-k") != job_progress_label(
            "job-1", "ch4-k"
        )


# ---------------------------------------------------------------------------
# in-process manager: lifecycle, preemption, drain/recover, byte identity
# ---------------------------------------------------------------------------


def _manager(tmp_path, store, **kwargs) -> JobsManager:
    manager = JobsManager(
        str(tmp_path / "jobs"), store=store, window_slice=2000, **kwargs
    )
    return manager


def _submit(manager: JobsManager, request=FAST_REQUEST, **kwargs) -> str:
    body = {"request": dict(request)}
    body.update(kwargs)
    return manager.submit_body(body)["job"]["id"]


def _wait_terminal(manager: JobsManager, job_id: str) -> JobRecord:
    _wait_until(lambda: manager.queue.get(job_id).terminal)
    return manager.queue.get(job_id)


class TestJobsManager:
    def test_job_completes_and_warm_result_is_cli_byte_identical(
        self, tmp_path
    ):
        store = MemoryStore()
        # Two direct-client runs: the second (warm) is the reference
        # envelope with deterministic provenance.
        direct_client = ReproClient(store=store)
        request = SimulateRequest(**{
            key: value for key, value in FAST_REQUEST.items()
            if key != "type"
        })
        direct_client.simulate(request)
        direct = direct_client.simulate(request)
        assert direct.provenance.cache == "hit"
        manager = _manager(tmp_path, store)
        manager.start()
        try:
            job_id = _submit(manager, tenant="alice")
            record = _wait_terminal(manager, job_id)
            assert record.status == COMPLETED
            document = manager.result_document(job_id)
            # The warm job ran against the already-populated store, so
            # its bare-envelope result serializes byte-identically to
            # the direct client envelope (which is what the CLI
            # ``--json`` path prints).
            assert dumps_canonical(document) == direct.to_json()
            assert document["provenance"]["cache"] == "hit"
            assert document["provenance"]["compute_seconds"] == 0.0
        finally:
            manager.stop(drain=False)

    def test_higher_priority_submit_preempts_at_slice_boundary(
        self, tmp_path
    ):
        store = MemoryStore()
        manager = JobsManager(
            str(tmp_path / "jobs"), store=store, window_slice=200
        )
        manager.start()
        try:
            low_id = _submit(
                manager,
                {"type": "simulate", "mix": "W1", "policy": "ts", "copies": 2},
                tenant="slow",
            )
            _wait_until(
                lambda: manager.queue.get(low_id).status == RUNNING
            )
            high_id = _submit(
                manager,
                {"type": "simulate", "mix": "W1", "policy": "acg",
                 "copies": 1},
                tenant="urgent",
                priority=10,
            )
            low = _wait_terminal(manager, low_id)
            high = _wait_terminal(manager, high_id)
            assert high.status == COMPLETED and low.status == COMPLETED
            assert low.preemptions >= 1
            events = _event_names(low)
            assert "preempted" in events
            # The preempted job resumed from its persisted checkpoint
            # rather than restarting the cell.
            assert "cell_resumed" in events
            # The high-priority job finished before the preempted one.
            assert high.finished_s <= low.finished_s
        finally:
            manager.stop(drain=False)

    def test_cancel_running_job_stops_at_slice_boundary(self, tmp_path):
        manager = JobsManager(
            str(tmp_path / "jobs"), store=MemoryStore(), window_slice=200
        )
        manager.start()
        try:
            job_id = _submit(manager)
            _wait_until(lambda: manager.queue.get(job_id).status == RUNNING)
            manager.cancel(job_id)
            record = _wait_terminal(manager, job_id)
            assert record.status == CANCELLED
            with pytest.raises(ConflictError) as excinfo:
                manager.result_document(job_id)
            assert excinfo.value.detail["status"] == CANCELLED
        finally:
            manager.stop(drain=False)

    def test_drain_then_fresh_manager_resumes_from_checkpoint(self, tmp_path):
        store = MemoryStore()
        manager = JobsManager(
            str(tmp_path / "jobs"), store=store, window_slice=200
        )
        manager.start()
        job_id = _submit(manager)
        _wait_until(
            lambda: bool(manager.queue.get(job_id).cell_states)
            or manager.queue.get(job_id).terminal
        )
        manager.stop(drain=True)
        parked = manager.queue.get(job_id)
        if parked.terminal:  # pragma: no cover - very fast machine
            pytest.skip("job finished before the drain landed")
        assert parked.status == QUEUED
        assert "drained" in _event_names(parked)

        successor = JobsManager(
            str(tmp_path / "jobs"), store=store, window_slice=2000
        )
        assert successor.start()["requeued"] == 1
        try:
            record = _wait_terminal(successor, job_id)
            assert record.status == COMPLETED
            assert "cell_resumed" in _event_names(record)
        finally:
            successor.stop(drain=False)

    def test_submit_body_validation(self, tmp_path):
        manager = _manager(tmp_path, MemoryStore())
        with pytest.raises(ConfigurationError):
            manager.submit_body({"request": {"type": "simulate"}, "bogus": 1})
        with pytest.raises(ConfigurationError):
            manager.submit_body({"request": {"type": "unknown-kind"}})
        with pytest.raises(ConfigurationError):
            manager.submit_body({"request": "not-a-dict"})

    @pytest.mark.parametrize("body, match", [
        ([], "must be a JSON object"),
        ({"request": FAST_REQUEST, "tenant": ""}, "tenant must be"),
        ({"request": FAST_REQUEST, "priority": "high"}, "must be an integer"),
        ({"request": FAST_REQUEST, "priority": True}, "must be an integer"),
        ({"request": FAST_REQUEST, "priority": 101}, "between -100 and 100"),
        ({"request": {"type": "campaign", "jobs": 2}}, "jobs=1"),
    ])
    def test_submit_body_refuses_each_bad_field(self, tmp_path, body, match):
        manager = _manager(tmp_path, MemoryStore())
        with pytest.raises(ConfigurationError, match=match):
            manager.submit_body(body)
        assert manager.queue.list_records() == []

    def test_compare_job_runs_one_cell_per_scheme(self):
        specs, echoes = expand_job_request(
            request_from_dict({"type": "compare", "mix": "W1", "copies": 1})
        )
        assert len(specs) == len(echoes) == 8
        assert {echo["type"] for echo in echoes} == {"simulate"}
        assert [echo["policy"] for echo in echoes] == [
            spec.policy for spec in specs
        ]

    def test_multi_cell_job_answers_a_results_document(self, tmp_path):
        manager = _manager(tmp_path, MemoryStore())
        manager.start()
        try:
            job_id = _submit(manager, {
                "type": "campaign", "grid": "ch4", "mixes": ["W1"],
                "policies": ["ts", "no-limit"], "copies": 1,
            })
            record = _wait_terminal(manager, job_id)
        finally:
            manager.stop(drain=False)
        assert record.status == COMPLETED
        assert record.cells_done == record.cells_total == 2
        document = manager.result_document(job_id)
        assert document == {
            "schema_version": SCHEMA_VERSION, "results": record.results,
        }

    @pytest.mark.parametrize("error, message", [
        (ReproError("no such cell"), "no such cell"),
        (RuntimeError("boom"), "RuntimeError: boom"),
    ])
    def test_a_failing_cell_fails_its_job_with_the_error(
        self, tmp_path, monkeypatch, error, message
    ):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr("repro.jobs.scheduler.run_cell", broken)
        manager = _manager(tmp_path, MemoryStore())
        manager.start()
        try:
            job_id = _submit(manager)
            record = _wait_terminal(manager, job_id)
        finally:
            manager.stop(drain=False)
        assert record.status == FAILED and record.error == message
        assert "failed" in _event_names(record)
        assert manager.status_document(job_id)["job"]["error"] == message

    def test_job_joins_the_trace_captured_at_submit(self, tmp_path):
        manager = _manager(tmp_path, MemoryStore())
        TRACER.configure(enabled=True)
        try:
            with TRACER.span("client") as parent:
                job_id = _submit(manager)
            manager.start()
            try:
                assert _wait_terminal(manager, job_id).status == COMPLETED
            finally:
                manager.stop(drain=False)
            spans = TRACER.spans(parent.trace_id)
        finally:
            TRACER.configure(enabled=False)
            TRACER.clear()
        jobs = [span for span in spans if span.name == "job"]
        assert len(jobs) == 1 and jobs[0].parent_id == parent.span_id

    def test_cancelling_a_queued_job_is_immediate(self, tmp_path):
        manager = _manager(tmp_path, MemoryStore())
        job_id = _submit(manager)
        assert manager.cancel(job_id)["job"]["status"] == CANCELLED
        assert manager.queue.get(job_id).terminal

    def test_scheduler_refuses_a_zero_slice_and_starts_once(self, tmp_path):
        with pytest.raises(ConfigurationError, match="window_slice"):
            JobScheduler(JobQueue(tmp_path / "queue"), window_slice=0)
        manager = _manager(tmp_path, MemoryStore())
        manager.start()
        try:
            thread = manager.scheduler._thread
            manager.scheduler.start()
            assert manager.scheduler._thread is thread
        finally:
            manager.stop(drain=False)

    def test_invalid_request_rejected_before_quota_and_disk(self, tmp_path):
        """A bad request is a 400 at submit: no record, no quota token."""
        jobs_dir = tmp_path / "jobs"
        manager = JobsManager(
            str(jobs_dir),
            store=MemoryStore(),
            quotas=QuotaManager(
                TenantPolicy(max_active=8, rate_per_s=1e-6, burst=1)
            ),
        )
        for bad in (
            {"type": "simulate", "mix": "W99"},
            {"type": "simulate", "mix": {"a": 1}},
            {"type": "server", "platform": {"a": 1}},
            {"type": "campaign", "mixes": ["W1", "W99"]},
        ):
            with pytest.raises(ReproError):
                manager.submit_body({"request": bad, "tenant": "alice"})
        assert list(jobs_dir.glob("*")) == []
        # The tenant's single burst token is still there for a good job.
        job_id = _submit(manager, tenant="alice")
        assert manager.queue.get(job_id).status == QUEUED
        with pytest.raises(QuotaExceeded):
            _submit(manager, tenant="alice")

    def test_quota_exhaustion_raises_structured_429_payload(self, tmp_path):
        clock = FakeClock()
        manager = JobsManager(
            str(tmp_path / "jobs"),
            store=MemoryStore(),
            quotas=QuotaManager(
                TenantPolicy(max_active=8, rate_per_s=0.5, burst=1),
                clock=clock,
            ),
        )
        _submit(manager, tenant="alice")
        with pytest.raises(QuotaExceeded) as excinfo:
            _submit(manager, tenant="alice")
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after_s == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# HTTP layer: routes, 429s, healthz, /metrics
# ---------------------------------------------------------------------------


@pytest.fixture()
def jobs_service(tmp_path):
    """A threaded jobs-enabled service over a private memory store."""
    manager = JobsManager(
        str(tmp_path / "jobs"),
        store=MemoryStore(),
        window_slice=2000,
        quotas=QuotaManager(
            TenantPolicy(max_active=2, rate_per_s=1000.0, burst=1000)
        ),
    )
    service = ReproService(port=0, jobs=manager)
    manager.start()
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    manager.stop(drain=False)
    service.shutdown()
    service.server_close()
    thread.join(timeout=5)


def _http(service, method, path, payload=None):
    request = urllib.request.Request(
        service.url + path,
        data=None if payload is None else json.dumps(payload).encode(),
        method=method,
    )
    try:
        with urllib.request.urlopen(request) as response:
            body = response.read()
            return response.status, json.loads(body) if body else {}
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestJobsHttp:
    def test_full_lifecycle_over_http(self, jobs_service):
        client = JobsClient(jobs_service.url)
        document = client.submit(dict(FAST_REQUEST), tenant="alice")
        assert document["schema_version"] == SCHEMA_VERSION
        job_id = document["job"]["id"]
        result = client.wait(job_id, timeout_s=60)
        assert result["provenance"]["cache"] in ("hit", "miss")
        listing = client.list("alice")
        assert [job["id"] for job in listing["jobs"]] == [job_id]
        assert client.list("nobody")["jobs"] == []

    def test_quota_429_is_structured_with_retry_after(self, tmp_path):
        manager = JobsManager(
            str(tmp_path / "jobs-q"),
            store=MemoryStore(),
            quotas=QuotaManager(TenantPolicy(max_active=1)),
        )
        service = ReproService(port=0, jobs=manager)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        try:
            # Scheduler intentionally NOT started: the first job stays
            # queued, deterministically exhausting max_active=1.
            status, _ = _http(
                service, "POST", "/v1/jobs",
                {"request": FAST_REQUEST, "tenant": "alice"},
            )
            assert status == 202
            client = JobsClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(FAST_REQUEST), tenant="alice")
            assert excinfo.value.status == 429
            body = excinfo.value.body
            assert body["reason"] == "max_active"
            assert body["tenant"] == "alice"
            assert excinfo.value.retry_after_s is not None
        finally:
            service.shutdown()
            service.server_close()
            thread.join(timeout=5)

    def test_healthz_reports_queue_and_backend(self, jobs_service):
        status, document = _http(jobs_service, "GET", "/v1/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["uptime_s"] >= 0
        assert document["jobs"]["backend"] == "serial"
        assert set(document["jobs"]) >= {"queue_depth", "running", "backend"}

    def test_healthz_without_jobs_still_answers(self):
        service = ReproService(port=0)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        try:
            status, document = _http(service, "GET", "/v1/healthz")
            assert status == 200
            assert document["jobs"] is None
            status, document = _http(service, "GET", "/v1/jobs")
            assert status == 503
            assert document["reason"] == "jobs_disabled"
        finally:
            service.shutdown()
            service.server_close()
            thread.join(timeout=5)

    def test_metrics_reports_depth_and_tenant_histograms(self, jobs_service):
        client = JobsClient(jobs_service.url)
        document = client.submit(dict(FAST_REQUEST), tenant="metered")
        client.wait(document["job"]["id"], timeout_s=60)
        with urllib.request.urlopen(jobs_service.url + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "repro_jobs_queue_depth" in text
        assert 'repro_jobs_submitted_total{tenant="metered"} 1' in text
        assert 'repro_job_latency_seconds_bucket{' in text
        assert 'tenant="metered"' in text
        assert "repro_uptime_seconds" in text
        names = {m["name"] for m in client.metrics_json()["metrics"]}
        assert {"repro_jobs_queue_depth", "repro_job_latency_seconds",
                "repro_http_request_seconds"} <= names

    def test_unknown_job_is_404(self, jobs_service):
        status, document = _http(jobs_service, "GET", "/v1/jobs/job-missing")
        assert status == 404
        assert "unknown job" in document["error"]
        for method, path in (
            ("POST", "/v1/jobs/job-missing/cancel"),
            ("GET", "/v1/jobs/job-missing/result"),
        ):
            status, document = _http(jobs_service, method, path)
            assert status == 404, path
            assert "unknown job" in document["error"], path


# ---------------------------------------------------------------------------
# run-concurrency bound (satellite: no unbounded handler threads)
# ---------------------------------------------------------------------------


class TestRunCapacity:
    def test_over_capacity_run_answers_structured_429(self):
        service = ReproService(port=0, max_concurrent_runs=1)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        try:
            assert service.acquire_run_slot()
            status, document = _http(
                service, "GET", "/v1/simulate?mix=W1&policy=ts&copies=1"
            )
            assert status == 429
            assert document["reason"] == "capacity"
            assert document["retry_after_s"] == pytest.approx(1.0)
            service.release_run_slot()
        finally:
            service.shutdown()
            service.server_close()
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# the crash-recovery acceptance case: a real server, SIGKILLed mid-job
# ---------------------------------------------------------------------------


def _spawn_server(workdir: Path, cache_dir: Path, *extra: str):
    port_file = workdir / "port.txt"
    port_file.unlink(missing_ok=True)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--jobs",
            "--port", "0", "--port-file", str(port_file),
            "--jobs-dir", str(workdir / "jobs"),
            "--window-slice", "2000",
            *extra,
        ],
        env=env,
        cwd=workdir,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        port = await_port_file(port_file, process, timeout_s=30)
    except ClusterError:
        process.kill()
        raise
    return process, f"http://127.0.0.1:{port}"


class TestServerCrashRecovery:
    def test_sigkilled_server_resumes_queued_and_running_jobs(self, tmp_path):
        cache = tmp_path / "cache"
        process, url = _spawn_server(tmp_path, cache)
        jobs_dir = tmp_path / "jobs"
        try:
            client = JobsClient(url)
            running_id = client.submit(
                {"type": "simulate", "mix": "W1", "policy": "ts",
                 "copies": 2},
            )["job"]["id"]
            queued_id = client.submit(
                {"type": "simulate", "mix": "W1", "policy": "acg",
                 "copies": 1},
            )["job"]["id"]

            def checkpointed():
                raw = (jobs_dir / f"{running_id}.json").read_text()
                try:
                    job = json.loads(raw)["job"]
                except ValueError:
                    return False  # raced a non-atomic reader? never: retry
                return job["status"] == "running" and job["cell_states"]

            _wait_until(checkpointed, timeout_s=60)
        finally:
            process.kill()
            process.wait(timeout=10)

        # The restarted server must pick both jobs up from disk: the
        # running one resumes from its checkpoint, the queued one runs.
        process, url = _spawn_server(tmp_path, cache)
        try:
            client = JobsClient(url)
            for job_id in (running_id, queued_id):
                result = client.wait(job_id, timeout_s=120)
                assert result["schema_version"] == SCHEMA_VERSION
            status_doc = client.status(running_id)["job"]
            events = [event["event"] for event in status_doc["events"]]
            assert "recovered" in events
            assert "cell_resumed" in events
            assert status_doc["status"] == "completed"

            # Warm resubmission of the recovered request returns an
            # envelope byte-identical to the warm CLI --json run over
            # the same cache directory.
            resubmit_id = client.submit(
                {"type": "simulate", "mix": "W1", "policy": "ts",
                 "copies": 2},
            )["job"]["id"]
            job_result = client.wait(resubmit_id, timeout_s=60)
            assert job_result["provenance"]["cache"] == "hit"
        finally:
            process.kill()
            process.wait(timeout=10)

        cli_text = _cli_json(
            cache, "simulate", "--mix", "W1", "--policy", "ts",
            "--copies", "2",
        )
        assert dumps_canonical(job_result) == cli_text.rstrip("\n")

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        process, url = _spawn_server(tmp_path, tmp_path / "cache")
        client = JobsClient(url)
        job_id = client.submit(dict(FAST_REQUEST))["job"]["id"]
        _wait_until(
            lambda: client.status(job_id)["job"]["status"] != "queued",
            timeout_s=30,
        )
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        # Whatever the drain interrupted is parked on disk, resumable.
        record = json.loads(
            (tmp_path / "jobs" / f"{job_id}.json").read_text()
        )["job"]
        assert record["status"] in ("queued", "completed")


def _cli_json(cache_dir: Path, *argv: str) -> str:
    """Run the CLI in-process with a private cache; return its stdout."""
    import contextlib
    import io

    stdout = io.StringIO()
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            assert main([*argv, "--json"]) == 0
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old
    return stdout.getvalue()
