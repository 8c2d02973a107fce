#!/usr/bin/env python
"""Run the key benchmarks and emit a machine-readable ``BENCH_PR10.json``.

The bench trajectory continues from ``BENCH_PR9.json``: one small,
fast, deterministic-in-shape bundle that CI runs on every push and
uploads as an artifact, so regressions in the hot paths show up as a
diffable JSON file instead of anecdotes.  Current probes:

- ``fig4_3_cell`` — wall time of one Fig. 4.3 simulation cell
  (W1/ts), uncached, best of ``--repeats``.  ``best_seconds`` reuses the
  process's level-1 memo after the first repeat; ``cold_best_seconds``
  empties it before every repeat, as a fresh ``repro simulate`` does,
  and ``level1_miss_ms`` is one cold level-1 evaluation (W1's four
  apps at the top frequency), so a change to the level-1 model shows.
- ``kernel_window_stream`` — the batched thermal kernel (``load`` then
  ``step`` per window) vs the per-node ``MemSpot`` oracle on an
  identical window stream, asserted bit-identical.
- ``campaign_grid_serial`` / ``campaign_grid_fleet2`` — the 8-cell ch4
  grid cold through an in-process serial run vs an
  ``HttpWorkerBackend`` over a 2-worker :class:`LocalFleet` with
  chunked dispatch (one request per worker), measuring the scale-out
  path end to end (worker boot excluded).  Both sides run in cold
  processes, so the comparison is apples to apples.
- ``checkpoint_overhead`` — per-window cost of engine checkpointing at
  its most aggressive setting (a checkpoint written every window).
  Two regression assertions: the optimized observer path (section-
  reuse serializer + raw-``os`` writes) must beat the naive PR-5-era
  re-dump + pathlib path run interleaved on the same filesystem
  (relative, so disk weather cancels), and the CPU-side cost per
  checkpoint (snapshot + serialize + encode, no I/O) must stay under
  an absolute 60 us budget.
- ``resume_vs_restart`` — a 2-worker fleet loses a worker mid-cell;
  wall clock of the grid with time-sliced (resume-from-checkpoint)
  dispatch vs whole-run (restart-from-zero) dispatch.
- ``warm_hit_latency`` — per-hit cost of a warm ``get_or_compute``
  through the ``JsonDirStore`` disk layer and through the
  memory-fronted tiered stack (reps interleaved).
- ``single_flight_dedup`` — N threads stampede one cold Fig. 4.3 cell
  through a ``SingleFlightStore``; the bench asserts exactly one
  compute ran (the PR 7 acceptance bar) and reports the wall clock
  next to the solo-cell time.
- ``job_queue_throughput`` — submit-to-complete latency through the
  ``repro.jobs`` service: warm single-cell jobs at 1/8/32 queued
  (the per-job queue overhead — persist, schedule, envelope), and one
  cold 8-cell compare job on the time-sliced scheduler.
- ``tracing_overhead`` — the same Fig. 4.3 cell with ``repro.obs``
  tracing off (the default: one ``is None`` check per window) vs on
  at the default 1-in-32 window sampling, reps interleaved.  The
  traced/untraced ratio is asserted under a generous ceiling so span
  recording can never quietly become a per-window tax.

Usage::

    PYTHONPATH=src python tools/run_benches.py [--output PATH]
        [--repeats N] [--skip-fleet]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import specs as specs_module  # noqa: E402
from repro.analysis.specs import Chapter4Spec  # noqa: E402
from repro.campaign import (  # noqa: E402
    Campaign,
    JsonDirStore,
    MemoryStore,
    NullStore,
    SingleFlightStore,
    TieredStore,
    engine_for_spec,
    run_cell,
    run_payload,
)
from repro.cluster import HttpWorkerBackend, LocalFleet  # noqa: E402
from repro.core.kernel import BatchedMemSpot  # noqa: E402
from repro.core.memspot import MemSpot  # noqa: E402
from repro.core.windowmodel import WindowModel  # noqa: E402
from repro.engine import (  # noqa: E402
    CheckpointFile,
    CheckpointObserver,
    EngineStateSerializer,
    Observer,
)
from repro.params.thermal_params import AOHS_1_5, ISOLATED_AMBIENT  # noqa: E402
from repro.workloads.mixes import get_mix  # noqa: E402

#: The campaign grid both execution paths run (cold, copies=1): all
#: eight Fig. 4.3 schemes, ordered so each worker's half is a
#: memoization-coherent family — the bandwidth-capped schemes share
#: level-1 window-model entries, as do the frequency-scaled ones —
#: which keeps the duplicated per-worker warm-up to a minimum.
GRID_POLICIES = (
    "bw", "acg", "bw+pid", "acg+pid",
    "no-limit", "ts", "cdvfs", "cdvfs+pid",
)

#: Driver for the cold-process serial baseline: same grid, same
#: MemoryStore, fresh interpreter (no warm window-model memo).
_SERIAL_DRIVER = """
import json, sys, time
sys.path.insert(0, {src!r})
from repro.analysis.specs import Chapter4Spec
from repro.campaign import Campaign, MemoryStore
specs = [Chapter4Spec(mix="W1", policy=p, copies=1) for p in {policies!r}]
started = time.perf_counter()
Campaign(specs, store=MemoryStore()).run()
print(json.dumps({{"seconds": time.perf_counter() - started}}))
"""


def _grid_specs() -> list[Chapter4Spec]:
    return [
        Chapter4Spec(mix="W1", policy=policy, copies=1)
        for policy in GRID_POLICIES
    ]


def bench_fig4_3_cell(repeats: int) -> dict:
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run_payload(spec, NullStore())
        samples.append(time.perf_counter() - started)
    cold_samples = []
    for _ in range(repeats):
        specs_module._window_models.clear()
        started = time.perf_counter()
        run_payload(spec, NullStore())
        cold_samples.append(time.perf_counter() - started)
    apps = get_mix("W1").apps
    miss_samples = []
    for _ in range(repeats):
        model = WindowModel()
        started = time.perf_counter()
        model.evaluate(apps, model.max_frequency_hz)
        miss_samples.append(time.perf_counter() - started)
    return {
        "description": "one uncached Fig. 4.3 cell (W1/ts, copies=1)",
        "best_seconds": round(min(samples), 4),
        "samples_seconds": [round(s, 4) for s in samples],
        "cold_best_seconds": round(min(cold_samples), 4),
        "level1_miss_ms": round(min(miss_samples) * 1e3, 3),
    }


def bench_kernel_window_stream(repeats: int) -> dict:
    rng = random.Random(1234)
    windows = [
        (rng.random() * 2.2e10, rng.random() * 1.1e10, rng.random() * 8.0)
        for _ in range(5_000)
    ]

    def drive_scalar() -> tuple[float, object]:
        memspot = MemSpot(AOHS_1_5, ISOLATED_AMBIENT)
        started = time.perf_counter()
        for read_bps, write_bps, heating in windows:
            sample = memspot.step(read_bps, write_bps, heating, 0.01)
        return time.perf_counter() - started, sample

    def drive_batched() -> tuple[float, object]:
        kernel = BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT)
        started = time.perf_counter()
        for read_bps, write_bps, heating in windows:
            sample = kernel.step(kernel.load(read_bps, write_bps, heating), 0.01)
        return time.perf_counter() - started, sample

    scalar_runs = [drive_scalar() for _ in range(repeats)]
    batched_runs = [drive_batched() for _ in range(repeats)]
    # Not merely close: the batched kernel must be bit-identical.
    assert scalar_runs[-1][1] == batched_runs[-1][1]
    scalar = min(seconds for seconds, _ in scalar_runs)
    batched = min(seconds for seconds, _ in batched_runs)
    return {
        "description": "5k-window thermal kernel stream, scalar vs batched",
        "scalar_seconds": round(scalar, 4),
        "batched_seconds": round(batched, 4),
        "speedup": round(scalar / batched, 3),
    }


def _serial_grid_once() -> float:
    driver = _SERIAL_DRIVER.format(
        src=str(REPO_ROOT / "src"), policies=tuple(GRID_POLICIES)
    )
    env = dict(os.environ)
    env["REPRO_CACHE"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", driver],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)["seconds"]


def _fleet_grid_once(workers: int, chunk: int) -> float:
    specs = _grid_specs()
    with LocalFleet(workers, env={"REPRO_CACHE": "0"}) as fleet:
        # The grid takes a few seconds; a 5 s heartbeat keeps liveness
        # probing off the timed path without disabling dead-worker
        # detection for longer grids.
        with HttpWorkerBackend(
            fleet.urls, chunk_cells=chunk, heartbeat_interval_s=5.0
        ) as backend:
            started = time.perf_counter()
            results = Campaign(
                specs, store=MemoryStore(), backend=backend
            ).run()
            elapsed = time.perf_counter() - started
    assert len(results) == len(specs)
    return elapsed


def bench_campaign_grids(repeats: int, workers: int = 2) -> tuple[dict, dict]:
    """Serial vs 2-worker fleet, reps interleaved so machine-load
    drift hits both sides equally; best-of-``repeats`` per side."""
    chunk = len(GRID_POLICIES) // workers
    serial_samples: list[float] = []
    fleet_samples: list[float] = []
    for _ in range(repeats):
        serial_samples.append(_serial_grid_once())
        fleet_samples.append(_fleet_grid_once(workers, chunk))
    serial = {
        "description": (
            f"cold ch4 grid, {len(GRID_POLICIES)} cells, serial in a "
            f"fresh process (no warm memo)"
        ),
        "cells": len(GRID_POLICIES),
        "best_seconds": round(min(serial_samples), 4),
        "samples_seconds": [round(s, 4) for s in serial_samples],
    }
    fleet = {
        "description": (
            f"cold ch4 grid, {len(GRID_POLICIES)} cells, "
            f"HttpWorkerBackend over {workers} LocalFleet workers, "
            f"chunked dispatch ({chunk} cells/request), reps "
            f"interleaved with the serial baseline"
        ),
        "cells": len(GRID_POLICIES),
        "workers": workers,
        "chunk_cells": chunk,
        "best_seconds": round(min(fleet_samples), 4),
        "samples_seconds": [round(s, 4) for s in fleet_samples],
        "speedup_vs_serial": round(min(serial_samples) / min(fleet_samples), 3),
    }
    return serial, fleet


class _NaiveCheckpointWriter(Observer):
    """The PR-5-era checkpoint path: full re-dump + pathlib write.

    Kept here as the bench's comparison arm — this is what
    :class:`~repro.engine.observers.CheckpointObserver` did before the
    section-reuse serializer and the raw-``os`` write path, and what it
    must keep beating.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def on_window(self, engine) -> None:
        state = engine.checkpoint()
        text = json.dumps(state.to_dict(), sort_keys=True)
        tmp = self.path.with_suffix(
            f"{self.path.suffix}.tmp.{os.getpid()}"
        )
        tmp.write_text(text + "\n")
        os.replace(tmp, self.path)


def bench_checkpoint_overhead(repeats: int) -> dict:
    """Engine checkpointing at every window vs no checkpointing."""
    import tempfile

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)

    def plain() -> tuple[float, int]:
        engine = engine_for_spec(spec)
        started = time.perf_counter()
        engine.run_to_completion()
        return time.perf_counter() - started, engine.windows

    def checkpointed(optimized: bool) -> tuple[float, int]:
        with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as root:
            path = Path(root) / "cell.checkpoint.json"
            observer: Observer
            if optimized:
                observer = CheckpointObserver(
                    CheckpointFile(path), every_windows=1
                )
            else:
                observer = _NaiveCheckpointWriter(path)
            engine = engine_for_spec(spec, extra_observers=(observer,))
            started = time.perf_counter()
            engine.run_to_completion()
            return time.perf_counter() - started, engine.windows

    plain_samples: list[float] = []
    opt_samples: list[float] = []
    naive_samples: list[float] = []
    windows = 0
    for _ in range(repeats):
        seconds, windows = plain()
        plain_samples.append(seconds)
        seconds, windows = checkpointed(optimized=True)
        opt_samples.append(seconds)
        seconds, windows = checkpointed(optimized=False)
        naive_samples.append(seconds)
    best_plain = min(plain_samples)
    best_opt = min(opt_samples)
    best_naive = min(naive_samples)
    per_window_us = (best_opt - best_plain) / windows * 1e6
    naive_us = (best_naive - best_plain) / windows * 1e6

    # Regression assertion 1 — relative, weather-proof.  The wall-clock
    # per-window number is dominated by two fsync-free syscalls (open +
    # rename) whose cost on a journaled filesystem swings 2-3x with
    # unrelated disk load, so an absolute wall-clock budget mostly
    # tests the weather.  Both write paths run interleaved in this
    # process against the same filesystem, so the comparison is fair:
    # the optimized path (section-reuse serializer + raw-os writes)
    # must not lose to the naive re-dump + pathlib path it replaced.
    assert best_opt <= best_naive * 1.10, (
        f"optimized checkpoint path ({best_opt:.3f}s, "
        f"{per_window_us:.1f} us/window) lost to the naive re-dump path "
        f"({best_naive:.3f}s, {naive_us:.1f} us/window)"
    )

    # Regression assertion 2 — absolute, deterministic.  The CPU-side
    # cost per checkpoint (snapshot build + section-cached serialize +
    # encode, no I/O) does not depend on disk weather, so IT gets the
    # absolute budget: ~20 us/checkpoint measured, 60 allows for slow
    # CI runners while still catching a gross CPU regression.
    engine = engine_for_spec(spec)
    engine.step_windows(500)
    serializer = EngineStateSerializer()
    serializer.serialize(engine.checkpoint())  # warm the section cache
    cpu_rounds = 2000
    started = time.perf_counter()
    for _ in range(cpu_rounds):
        (serializer.serialize(engine.checkpoint()) + "\n").encode()
    cpu_us = (time.perf_counter() - started) / cpu_rounds * 1e6
    cpu_budget_us = 60.0
    assert cpu_us <= cpu_budget_us, (
        f"CPU-side checkpoint cost {cpu_us:.1f} us/checkpoint exceeds "
        f"the {cpu_budget_us} us budget"
    )
    return {
        "description": (
            "W1/ts cell with a checkpoint written every window vs none "
            "(worst-case checkpoint cadence); the optimized observer "
            "path is raced against the naive PR-5-era write path"
        ),
        "windows": windows,
        "plain_seconds": round(best_plain, 4),
        "checkpointed_seconds": round(best_opt, 4),
        "naive_checkpointed_seconds": round(best_naive, 4),
        "overhead_us_per_window": round(per_window_us, 2),
        "naive_overhead_us_per_window": round(naive_us, 2),
        "cpu_us_per_checkpoint": round(cpu_us, 2),
        "cpu_budget_us_per_checkpoint": cpu_budget_us,
    }


def _killed_fleet_grid(window_slice: int | None) -> dict:
    """Run one big cell on a 2-worker fleet, killing a worker mid-cell.

    With ``window_slice`` the survivor resumes from the cell's last
    checkpoint; without it the cell restarts from zero.  The kill fires
    at a fixed wall delay and targets whichever worker actually holds
    the cell at that instant (``fleet_stats`` in-flight view), so both
    variants genuinely lose mid-cell work.
    """
    spec = Chapter4Spec(mix="W1", policy="ts", copies=2)
    # Time the cell solo so the kill lands mid-cell in both variants.
    solo_engine = engine_for_spec(spec)
    solo_started = time.perf_counter()
    solo_engine.run_to_completion()
    solo_seconds = time.perf_counter() - solo_started
    kill_after = max(0.2, solo_seconds * 0.6)

    with LocalFleet(2, env={"REPRO_CACHE": "0"}) as fleet:
        backend = HttpWorkerBackend(
            fleet.urls,
            window_slice=window_slice,
            heartbeat_interval_s=0.25,
            health_timeout_s=1.0,
        )
        with backend:
            campaign = Campaign(
                [spec], store=MemoryStore(), backend=backend
            )
            results: list = []

            def consume() -> None:
                results.extend(r for _, r, _, _ in campaign.iter_run())

            started = time.perf_counter()
            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            time.sleep(kill_after)
            holder = next(
                (
                    index
                    for index, worker in enumerate(backend.fleet_stats())
                    if worker["in_flight_cells"]
                ),
                0,
            )
            fleet.kill(holder)
            consumer.join(timeout=600)
            elapsed = time.perf_counter() - started
            stats = backend.dispatch_stats()
    assert len(results) == 1, "grid did not survive the kill"
    record = next(iter(stats["cells"].values()), {})
    return {
        "solo_cell_seconds": round(solo_seconds, 4),
        "kill_after_seconds": round(kill_after, 4),
        "killed_worker": holder,
        "grid_seconds": round(elapsed, 4),
        "resumed_from_window": record.get("resumed_from", 0),
        "slices": record.get("slices", 1),
    }


def bench_resume_vs_restart() -> dict:
    resumed = _killed_fleet_grid(window_slice=2000)
    restarted = _killed_fleet_grid(window_slice=None)
    return {
        "description": (
            "one W1/ts copies=2 cell on a 2-worker fleet, one worker "
            "SIGKILLed mid-cell: time-sliced resume-from-checkpoint vs "
            "whole-run restart-from-zero"
        ),
        "resume": resumed,
        "restart": restarted,
        "resume_speedup": round(
            restarted["grid_seconds"] / resumed["grid_seconds"], 3
        ),
    }


def bench_warm_hit_latency(repeats: int, hits: int = 2000) -> dict:
    """Per-hit cost of warm lookups through the store stack.

    One payload (a realistic ~1 KB record) is served ``hits`` times
    from the disk store and from the memory-fronted tiered stack.
    Reps interleave the variants so disk weather hits both equally.
    """
    import tempfile

    payload = {"trace": [round(0.1 * i, 3) for i in range(100)], "ok": 1}
    key = "bench-warmhit-00aa"

    def drive(store) -> float:
        compute = lambda: (payload, {})  # noqa: E731 (never called warm)
        started = time.perf_counter()
        for _ in range(hits):
            _, hit, _ = store.get_or_compute(key, compute)
            assert hit
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="repro-bench-warm-") as root:
        flat = JsonDirStore(Path(root) / "flat")
        tiered = SingleFlightStore(
            TieredStore([MemoryStore(), JsonDirStore(Path(root) / "tier")]),
            scope="bench-warmhit",
        )
        for store in (flat, tiered):
            store.put(key, payload)
        samples = {name: [] for name in ("flat", "tiered")}
        for _ in range(repeats):
            samples["flat"].append(drive(flat))
            samples["tiered"].append(drive(tiered))

    best = {name: min(times) for name, times in samples.items()}
    return {
        "description": (
            f"{hits} warm get_or_compute hits on one ~1 KB entry: "
            f"JsonDirStore vs the memory-fronted single-flight stack "
            f"(reps interleaved)"
        ),
        "hits": hits,
        "flat_us_per_hit": round(best["flat"] / hits * 1e6, 2),
        "tiered_us_per_hit": round(best["tiered"] / hits * 1e6, 2),
    }


class _CountingFlightStore(SingleFlightStore):
    """A single-flight store that counts how many computes actually ran."""

    def __init__(self, inner, *, scope: str) -> None:
        super().__init__(inner, scope=scope)
        self.computes = 0
        self._count_lock = threading.Lock()

    def get_or_compute(self, key, compute, meta=None, validate=None):
        def counted():
            with self._count_lock:
                self.computes += 1
            return compute()

        return super().get_or_compute(key, counted, meta, validate)


def bench_single_flight_dedup(threads: int = 6) -> dict:
    """N threads stampede one cold cell; exactly one compute may run.

    This is the concurrent-service scenario the
    :class:`SingleFlightStore` exists for: without coalescing the
    stampede runs ``threads`` identical GIL-bound simulations.  The
    bench times the coalesced stampede against the solo cell and
    asserts the dedup (1 compute, everyone served the same payload).
    """
    import tempfile

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    solo_started = time.perf_counter()
    solo_payload = run_payload(spec, NullStore())[0]
    solo_seconds = time.perf_counter() - solo_started

    with tempfile.TemporaryDirectory(prefix="repro-bench-sf-") as root:
        store = _CountingFlightStore(
            TieredStore([MemoryStore(), JsonDirStore(Path(root))]),
            scope="bench-single-flight",
        )
        gate = threading.Barrier(threads)
        outcomes: list = []
        lock = threading.Lock()

        def stampede() -> None:
            gate.wait()
            outcome = run_cell(spec, store)
            with lock:
                outcomes.append(outcome)

        pool = [threading.Thread(target=stampede) for _ in range(threads)]
        started = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stampede_seconds = time.perf_counter() - started

    assert store.computes == 1, (
        f"stampede of {threads} ran {store.computes} computes; "
        f"single-flight must coalesce them into 1"
    )
    assert len(outcomes) == threads
    assert all(o.payload == solo_payload for o in outcomes)
    coalesced = sum(
        1 for o in outcomes if o.store_info.get("single_flight") == "coalesced"
    )
    return {
        "description": (
            f"{threads} threads stampede one cold W1/ts cell through a "
            f"SingleFlightStore: exactly 1 compute serves everyone"
        ),
        "threads": threads,
        "computes": store.computes,
        "coalesced_followers": coalesced,
        "solo_cell_seconds": round(solo_seconds, 4),
        "stampede_seconds": round(stampede_seconds, 4),
        "computes_saved": threads - store.computes,
    }


#: Traced/untraced wall-clock ceiling for the tracing bench.  The
#: measured overhead at 1-in-32 window sampling is ~1-2%; 1.15x leaves
#: room for CI-runner noise while still failing if span recording ever
#: lands on the per-window hot path unconditionally.
TRACING_MAX_RATIO = 1.15


def bench_tracing_overhead(repeats: int) -> dict:
    """One Fig. 4.3 cell untraced vs traced (default sampling)."""
    from repro.obs.trace import DEFAULT_SAMPLE_EVERY, TRACER

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)

    def cell_once() -> float:
        engine = engine_for_spec(spec)
        started = time.perf_counter()
        engine.run_to_completion()
        return time.perf_counter() - started

    untraced: list[float] = []
    traced: list[float] = []
    for _ in range(repeats):
        assert not TRACER.enabled, "bench expects tracing off by default"
        untraced.append(cell_once())
        TRACER.configure(enabled=True, sample_every=DEFAULT_SAMPLE_EVERY)
        try:
            with TRACER.span("bench.cell", policy="ts"):
                traced.append(cell_once())
        finally:
            TRACER.configure(enabled=False)
            TRACER.clear()
    best_untraced, best_traced = min(untraced), min(traced)
    ratio = best_traced / best_untraced
    assert ratio <= TRACING_MAX_RATIO, (
        f"traced cell {best_traced:.3f}s is {ratio:.3f}x the untraced "
        f"{best_untraced:.3f}s (ceiling {TRACING_MAX_RATIO}x) — tracing "
        f"overhead regressed"
    )
    return {
        "description": (
            "one W1/ts cell, tracing disabled (default) vs enabled at "
            f"1-in-{DEFAULT_SAMPLE_EVERY} window sampling, reps "
            "interleaved"
        ),
        "untraced_seconds": round(best_untraced, 4),
        "traced_seconds": round(best_traced, 4),
        "traced_over_untraced": round(ratio, 4),
        "max_ratio": TRACING_MAX_RATIO,
        "sample_every": DEFAULT_SAMPLE_EVERY,
    }


#: The job-bench cold workload: the full Fig. 4.3 comparison — eight
#: same-workload cells, which the scheduler steps in window slices, one
#: after another.
JOB_COLD_REQUEST = {"type": "compare", "mix": "W1", "copies": 1}
JOB_COLD_CELLS = 8


def bench_job_queue_throughput(repeats: int) -> dict:
    """Submit-to-complete latency through the jobs service.

    Two probes of :mod:`repro.jobs`, on its one (time-sliced) scheduler:

    - warm jobs at 1/8/32 queued: every cell is a cache hit, so the
      measured time is pure service overhead — persist, enqueue,
      schedule, envelope, persist again — per job;
    - one cold 8-cell compare job (the Fig. 4.3 scheme sweep).
    """
    import tempfile

    from repro.jobs import JobsManager, QuotaManager, TenantPolicy

    warm_request = {
        "type": "simulate", "mix": "W1", "policy": "ts", "copies": 1,
    }
    warm_store = MemoryStore()
    run_cell(Chapter4Spec(mix="W1", policy="ts", copies=1), warm_store)

    def drive(store, request, count) -> float:
        with tempfile.TemporaryDirectory(prefix="repro-bench-jobs-") as root:
            manager = JobsManager(
                root, store=store, window_slice=2000,
                # The bench measures the queue, not the admission
                # control: quotas sized so 32 queued jobs all admit.
                quotas=QuotaManager(TenantPolicy(
                    max_active=64, rate_per_s=10_000.0, burst=64,
                )),
            )
            manager.start()
            try:
                started = time.perf_counter()
                job_ids = [
                    manager.submit_body({"request": request})["job"]["id"]
                    for _ in range(count)
                ]
                deadline = time.monotonic() + 600
                for job_id in job_ids:
                    while not manager.queue.get(job_id).terminal:
                        assert time.monotonic() < deadline, "bench job hung"
                        time.sleep(0.0005)
                elapsed = time.perf_counter() - started
                records = [manager.queue.get(job_id) for job_id in job_ids]
                assert all(r.status == "completed" for r in records), (
                    [r.error for r in records]
                )
                return elapsed
            finally:
                manager.stop(drain=False)

    result: dict = {
        "description": (
            "submit-to-complete latency through the jobs service: warm "
            "single-cell jobs at 1/8/32 queued (pure queue overhead), "
            "and one cold 8-cell compare job (Fig. 4.3 sweep)"
        ),
    }
    for load in (1, 8, 32):
        best = min(
            drive(warm_store, warm_request, load) for _ in range(repeats)
        )
        result[f"warm_{load}_jobs_serial_seconds"] = round(best, 4)
        result[f"warm_{load}_jobs_ms_per_job"] = round(best / load * 1e3, 3)

    cold = min(
        drive(MemoryStore(), JOB_COLD_REQUEST, 1) for _ in range(repeats)
    )
    result["cold_compare_cells"] = JOB_COLD_CELLS
    result["cold_compare_serial_seconds"] = round(cold, 4)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_PR10.json"), metavar="PATH"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--skip-fleet", action="store_true",
        help="skip the fleet benches (e.g. sandboxes without "
        "subprocess networking)",
    )
    args = parser.parse_args(argv)

    benches: dict[str, dict] = {}
    print("bench: fig4_3_cell ...", flush=True)
    benches["fig4_3_cell"] = bench_fig4_3_cell(args.repeats)
    print("bench: kernel_window_stream ...", flush=True)
    benches["kernel_window_stream"] = bench_kernel_window_stream(args.repeats)
    print("bench: checkpoint_overhead ...", flush=True)
    benches["checkpoint_overhead"] = bench_checkpoint_overhead(args.repeats)
    print("bench: warm_hit_latency ...", flush=True)
    benches["warm_hit_latency"] = bench_warm_hit_latency(args.repeats)
    print("bench: single_flight_dedup ...", flush=True)
    benches["single_flight_dedup"] = bench_single_flight_dedup()
    print("bench: job_queue_throughput ...", flush=True)
    benches["job_queue_throughput"] = bench_job_queue_throughput(args.repeats)
    print("bench: tracing_overhead ...", flush=True)
    benches["tracing_overhead"] = bench_tracing_overhead(args.repeats)
    if args.skip_fleet:
        print("bench: campaign_grid_serial ...", flush=True)
        benches["campaign_grid_serial"] = {
            "description": "cold ch4 grid, serial in a fresh process",
            "cells": len(GRID_POLICIES),
            "best_seconds": round(_serial_grid_once(), 4),
        }
    else:
        print("bench: campaign_grid serial vs fleet2 (interleaved) ...",
              flush=True)
        serial, fleet = bench_campaign_grids(args.repeats)
        benches["campaign_grid_serial"] = serial
        benches["campaign_grid_fleet2"] = fleet
        print("bench: resume_vs_restart ...", flush=True)
        benches["resume_vs_restart"] = bench_resume_vs_restart()

    document = {
        "schema_version": "1.0",
        "generated_by": "tools/run_benches.py",
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Interpret fleet-vs-serial with this in hand: on a one-core
        # box the fleet can only win back its own overhead; the
        # parallel speedup is real on multi-core runners.
        "cpu_count": os.cpu_count(),
        "benches": benches,
    }
    output = Path(args.output)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    for name, bench in benches.items():
        headline = bench.get(
            "best_seconds",
            bench.get(
                "seconds",
                bench.get(
                    "batched_seconds",
                    bench.get(
                        "checkpointed_seconds", bench.get("serial_seconds")
                    ),
                ),
            ),
        )
        extra = (
            f" (speedup {bench['speedup']}x)" if "speedup" in bench else ""
        ) + (
            f" (speedup vs serial {bench['speedup_vs_serial']}x)"
            if "speedup_vs_serial" in bench
            else ""
        ) + (
            f" (resume speedup {bench['resume_speedup']}x)"
            if "resume_speedup" in bench
            else ""
        ) + (
            f" ({bench['overhead_us_per_window']} us/window)"
            if "overhead_us_per_window" in bench
            else ""
        )
        if headline is None and "resume" in bench:
            headline = bench["resume"]["grid_seconds"]
        if headline is None and "flat_us_per_hit" in bench:
            print(
                f"  {name}: flat {bench['flat_us_per_hit']} us/hit, "
                f"tiered {bench['tiered_us_per_hit']} us/hit"
            )
            continue
        if headline is None and "warm_1_jobs_ms_per_job" in bench:
            print(
                f"  {name}: warm {bench['warm_1_jobs_ms_per_job']}/"
                f"{bench['warm_8_jobs_ms_per_job']}/"
                f"{bench['warm_32_jobs_ms_per_job']} ms/job at 1/8/32, "
                f"cold compare "
                f"{bench['cold_compare_serial_seconds']}s"
            )
            continue
        if headline is None and "traced_over_untraced" in bench:
            print(
                f"  {name}: untraced {bench['untraced_seconds']}s vs "
                f"traced {bench['traced_seconds']}s "
                f"({bench['traced_over_untraced']}x)"
            )
            continue
        if headline is None and "stampede_seconds" in bench:
            print(
                f"  {name}: {bench['stampede_seconds']}s for "
                f"{bench['threads']} threads "
                f"({bench['computes']} compute, "
                f"{bench['computes_saved']} saved)"
            )
            continue
        print(f"  {name}: {headline}s{extra}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
