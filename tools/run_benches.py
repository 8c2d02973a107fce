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
- ``campaign_grid_serial`` — the 8-cell ch4 grid cold through an
  in-process serial run in a fresh process (no warm memo).
- ``checkpoint_overhead`` — per-window cost of engine checkpointing at
  its most aggressive setting (a checkpoint written every window, from
  ``run_cell``'s one-window slices).  Two regression assertions: the
  ``CheckpointFile`` path must be no worse than 1.10x the naive
  PR-5-era path, the two run interleaved on the same filesystem with
  their order alternating between repeats (relative, so disk weather
  cancels).  Both serialize the same document, so this races
  ``publish_atomic``'s raw-``os`` write against a pathlib write.  And
  the CPU-side cost per checkpoint (snapshot + the checkpoint file's
  serialize and encode, no I/O), over snapshots that change as
  consecutive slice boundaries do, best of the repeats, must stay under
  an absolute 60 us budget.
- ``warm_hit_latency`` — per-hit cost of a warm Fig. 4.3 cell read
  through ``JsonDirStore.get`` and through the default result cache's
  lookup (a warm ``run_cell(spec, None)``), reps interleaved.
- ``single_flight_dedup`` — N threads stampede one cold Fig. 4.3 cell
  through the default result cache under a temporary
  ``REPRO_CACHE_DIR``; the bench asserts exactly one compute ran and
  reports the wall clock next to the solo-cell time.
- ``job_queue_throughput`` — submit-to-complete latency through the
  ``repro.jobs`` service: warm single-cell jobs at 1/8/32 queued
  (the per-job queue overhead — persist, schedule, envelope), and one
  cold 8-cell compare job on the time-sliced scheduler.
- ``tracing_overhead`` — the same Fig. 4.3 cell with ``repro.obs``
  tracing off (the default: one ``is None`` check per window) vs on
  at the default 1-in-32 window sampling, in at least 15 back-to-back
  pairs whose first arm alternates.  The median traced/untraced ratio
  of the pairs is asserted under a generous ceiling so span recording
  can never quietly become a per-window tax.

Usage::

    PYTHONPATH=src python tools/run_benches.py [--output PATH]
        [--repeats N]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import statistics
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
    JsonDirStore,
    MemoryStore,
    NullStore,
    engine_for_spec,
    run_cell,
    run_payload,
)
from repro.core.kernel import BatchedMemSpot  # noqa: E402
from repro.core.memspot import MemSpot  # noqa: E402
from repro.core.windowmodel import WindowModel  # noqa: E402
from repro.engine import CheckpointFile, EngineState  # noqa: E402
from repro.engine.state import encode_checkpoint  # noqa: E402
from repro.obs.metrics import METRICS  # noqa: E402
from repro.params.thermal_params import AOHS_1_5, ISOLATED_AMBIENT  # noqa: E402
from repro.workloads.mixes import get_mix  # noqa: E402

#: The campaign grid (cold, copies=1): all eight Fig. 4.3 schemes.
GRID_POLICIES = (
    "bw", "acg", "bw+pid", "acg+pid",
    "no-limit", "ts", "cdvfs", "cdvfs+pid",
)

#: Driver for the cold serial grid: a fresh interpreter (no warm
#: window-model memo) and a MemoryStore.
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


def bench_campaign_grid_serial(repeats: int) -> dict:
    samples = [_serial_grid_once() for _ in range(repeats)]
    return {
        "description": (
            f"cold ch4 grid, {len(GRID_POLICIES)} cells, serial in a "
            f"fresh process (no warm memo)"
        ),
        "cells": len(GRID_POLICIES),
        "best_seconds": round(min(samples), 4),
        "samples_seconds": [round(s, 4) for s in samples],
    }


def _naive_checkpoint_writer(path: Path):
    """The PR-5-era checkpoint path: full re-dump + pathlib write.

    Kept here as the bench's comparison arm.  It serializes the same
    document :class:`~repro.engine.state.CheckpointFile` does, so the
    race is between their writes: ``publish_atomic``'s raw ``os.open``
    / ``os.write`` loop must keep beating ``Path.write_text``.
    """

    def on_slice(state: EngineState) -> None:
        text = json.dumps(state.to_dict(), sort_keys=True)
        tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
        tmp.write_text(text + "\n")
        os.replace(tmp, path)

    return on_slice


#: Minimum repeats of the checkpoint bench.  One repeat is a 4-5 s run
#: bound by file I/O per write path; best of 3 did not separate the two
#: paths on a 2-vCPU box, so the bench takes more samples and
#: alternates which path runs first.
CHECKPOINT_REPEATS = 7


def bench_checkpoint_overhead(repeats: int) -> dict:
    """Engine checkpointing at every window vs no checkpointing."""
    import tempfile

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)

    def plain() -> tuple[float, int]:
        started = time.perf_counter()
        outcome = run_cell(spec, NullStore())
        return time.perf_counter() - started, outcome.windows

    def checkpointed(optimized: bool) -> tuple[float, int]:
        # Both arms run the cell in one-window slices, as a resumable
        # CLI run or a job does, and write each slice's state.
        with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as root:
            path = Path(root) / "cell.checkpoint.json"
            if optimized:
                on_slice = CheckpointFile(path).write
            else:
                on_slice = _naive_checkpoint_writer(path)
            started = time.perf_counter()
            outcome = run_cell(
                spec, NullStore(), window_slice=1, on_slice=on_slice
            )
            return time.perf_counter() - started, outcome.windows

    def cpu_per_checkpoint(rounds: int = 2000) -> float:
        # Snapshot build + the checkpoint file's own serialize and
        # encode, no I/O.  Each round first steps one untimed window, so
        # every snapshot differs from the last, as consecutive slice
        # boundaries do.
        engine = engine_for_spec(spec)
        engine.step_windows(500)
        cpu_seconds = 0.0
        for _ in range(rounds):
            engine.step_window()
            started = time.perf_counter()
            encode_checkpoint(engine.checkpoint())
            cpu_seconds += time.perf_counter() - started
        return cpu_seconds / rounds * 1e6

    plain_samples: list[float] = []
    opt_samples: list[float] = []
    naive_samples: list[float] = []
    cpu_samples: list[float] = []
    windows = 0
    for repeat in range(max(repeats, CHECKPOINT_REPEATS)):
        seconds, windows = plain()
        plain_samples.append(seconds)
        # Alternate the order so neither write path always runs on the
        # file-system state the other one left behind.
        for optimized in (True, False) if repeat % 2 == 0 else (False, True):
            seconds, windows = checkpointed(optimized=optimized)
            (opt_samples if optimized else naive_samples).append(seconds)
        cpu_samples.append(cpu_per_checkpoint())
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
    # process against the same filesystem, each first in half of the
    # repeats, so the comparison is fair.  Both arms serialize the
    # same document, so what races is the write: the CheckpointFile
    # path (publish_atomic's raw-os writes) must be no worse than 1.10x
    # the pathlib write it replaced.
    assert best_opt <= best_naive * 1.10, (
        f"CheckpointFile's publish_atomic write ({best_opt:.3f}s, "
        f"{per_window_us:.1f} us/window) lost to the pathlib write "
        f"({best_naive:.3f}s, {naive_us:.1f} us/window); both "
        f"serialize the same document"
    )

    # Regression assertion 2 — absolute, deterministic.  The CPU-side
    # cost per checkpoint does not depend on disk weather, so IT gets
    # the absolute budget, read as the best repeat like the write paths
    # above: on a shared 2-vCPU host one sample read 43-54 us pinned to
    # one vCPU and 68-82 us pinned to the other.  60 us allows for slow
    # CI runners while still catching a gross CPU regression, which
    # slows every repeat.
    cpu_us = min(cpu_samples)
    cpu_budget_us = 60.0
    assert cpu_us <= cpu_budget_us, (
        f"CPU-side checkpoint cost {cpu_us:.1f} us/checkpoint exceeds "
        f"the {cpu_budget_us} us budget"
    )
    return {
        "description": (
            "W1/ts cell with a checkpoint written every window vs none "
            "(worst-case checkpoint cadence, one-window run_cell "
            "slices); the CheckpointFile path is raced against the "
            "naive PR-5-era write path"
        ),
        "windows": windows,
        "plain_seconds": round(best_plain, 4),
        "checkpointed_seconds": round(best_opt, 4),
        "naive_checkpointed_seconds": round(best_naive, 4),
        "overhead_us_per_window": round(per_window_us, 2),
        "naive_overhead_us_per_window": round(naive_us, 2),
        "cpu_us_per_checkpoint": round(cpu_us, 2),
        "cpu_us_samples": [round(us, 2) for us in cpu_samples],
        "cpu_budget_us_per_checkpoint": cpu_budget_us,
    }


@contextlib.contextmanager
def _default_cache_in(root: str):
    """Point the default result cache at an enabled disk store under
    ``root`` for the block, then restore the environment."""
    names = ("REPRO_CACHE", "REPRO_CACHE_DIR")
    saved = {name: os.environ.get(name) for name in names}
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = root
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def bench_warm_hit_latency(repeats: int, hits: int = 2000) -> dict:
    """Per-hit cost of warm lookups of one cell.

    One Fig. 4.3 cell is computed once into a fresh default cache, then
    read ``hits`` times through ``JsonDirStore.get`` (a file open and
    JSON parse per hit) and through the default cache's lookup (a warm
    ``run_cell``: one memo read).  Reps interleave the variants so disk
    weather hits both equally.
    """
    import tempfile

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    key = spec.key()

    def drive_disk(store) -> float:
        started = time.perf_counter()
        for _ in range(hits):
            assert store.get(key) is not None
        return time.perf_counter() - started

    def drive_cache() -> float:
        started = time.perf_counter()
        for _ in range(hits):
            assert run_cell(spec, None).hit
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="repro-bench-warm-") as root:
        with _default_cache_in(root):
            run_cell(spec, None)
            disk = JsonDirStore(root)
            samples = {"flat": [], "cache": []}
            for _ in range(repeats):
                samples["flat"].append(drive_disk(disk))
                samples["cache"].append(drive_cache())

    best = {name: min(times) for name, times in samples.items()}
    return {
        "description": (
            f"{hits} warm hits on one W1/ts cell: JsonDirStore.get vs "
            f"the default result cache's lookup (reps interleaved)"
        ),
        "hits": hits,
        "flat_us_per_hit": round(best["flat"] / hits * 1e6, 2),
        "cache_us_per_hit": round(best["cache"] / hits * 1e6, 2),
    }


def _computes(kind: str) -> int:
    """Cell computes this process finished, by the compute histogram."""
    return METRICS.histogram_stats("repro_cell_compute_seconds", kind=kind)[0]


def bench_single_flight_dedup(threads: int = 6) -> dict:
    """N threads stampede one cold cell; exactly one compute may run.

    This is the concurrent-service case the default result cache's
    single-flight exists for: without coalescing the stampede runs
    ``threads`` identical GIL-bound simulations.  The bench times the
    coalesced stampede against the solo cell and asserts the dedup (1
    compute, everyone served the same payload).
    """
    import tempfile

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    solo_started = time.perf_counter()
    solo_payload = run_payload(spec, NullStore())[0]
    solo_seconds = time.perf_counter() - solo_started

    with tempfile.TemporaryDirectory(prefix="repro-bench-sf-") as root:
        with _default_cache_in(root):
            gate = threading.Barrier(threads)
            outcomes: list = []
            lock = threading.Lock()

            def stampede() -> None:
                gate.wait()
                outcome = run_cell(spec, None)
                with lock:
                    outcomes.append(outcome)

            pool = [threading.Thread(target=stampede) for _ in range(threads)]
            before = _computes(spec.kind)
            started = time.perf_counter()
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            stampede_seconds = time.perf_counter() - started
            computes = _computes(spec.kind) - before

    assert computes == 1, (
        f"stampede of {threads} ran {computes} computes; "
        f"single-flight must coalesce them into 1"
    )
    assert len(outcomes) == threads
    assert all(o.payload == solo_payload for o in outcomes)
    coalesced = sum(
        1 for o in outcomes if o.store_info.get("single_flight") == "coalesced"
    )
    return {
        "description": (
            f"{threads} threads stampede one cold W1/ts cell through the "
            f"default result cache: exactly 1 compute serves everyone"
        ),
        "threads": threads,
        "computes": computes,
        "coalesced_followers": coalesced,
        "solo_cell_seconds": round(solo_seconds, 4),
        "stampede_seconds": round(stampede_seconds, 4),
        "computes_saved": threads - computes,
    }


#: Traced/untraced wall-clock ceiling for the tracing bench, on the
#: median per-pair ratio.  At 1-in-32 window sampling that median
#: read 1.05-1.11 on a 2-vCPU host; 1.15x leaves room for CI-runner
#: noise while still failing if span recording ever lands on the
#: per-window hot path unconditionally.
TRACING_MAX_RATIO = 1.15
#: Minimum traced/untraced pairs of the tracing bench.  One cell takes
#: ~50-90 ms and its untraced time moves by a quarter from one process
#: to the next on a 2-vCPU host, so best-of-3 times flaked against the
#: ceiling; the median ratio of many pairs, each run back to back with
#: the first arm alternating, does not.
TRACING_PAIRS = 15


def bench_tracing_overhead(repeats: int) -> dict:
    """One Fig. 4.3 cell untraced vs traced (default sampling), in
    pairs whose first arm alternates."""
    from repro.obs.trace import DEFAULT_SAMPLE_EVERY, TRACER

    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)

    def cell_once() -> float:
        engine = engine_for_spec(spec)
        started = time.perf_counter()
        engine.run_to_completion()
        return time.perf_counter() - started

    def traced_once() -> float:
        TRACER.configure(enabled=True)
        try:
            with TRACER.span("bench.cell", policy="ts"):
                return cell_once()
        finally:
            TRACER.configure(enabled=False)
            TRACER.clear()

    untraced: list[float] = []
    traced: list[float] = []
    for pair in range(max(repeats, TRACING_PAIRS)):
        assert not TRACER.enabled, "bench expects tracing off by default"
        if pair % 2 == 0:
            untraced.append(cell_once())
            traced.append(traced_once())
        else:
            traced.append(traced_once())
            untraced.append(cell_once())
    ratio = statistics.median(t / u for t, u in zip(traced, untraced))
    median_untraced = statistics.median(untraced)
    median_traced = statistics.median(traced)
    assert ratio <= TRACING_MAX_RATIO, (
        f"the median traced/untraced ratio of {len(traced)} pairs is "
        f"{ratio:.3f}x (medians {median_traced:.3f}s traced, "
        f"{median_untraced:.3f}s untraced; ceiling {TRACING_MAX_RATIO}x) "
        f"— tracing overhead regressed"
    )
    return {
        "description": (
            "one W1/ts cell, tracing disabled (default) vs enabled at "
            f"1-in-{DEFAULT_SAMPLE_EVERY} window sampling, in pairs whose "
            "first arm alternates; the ratio is the median per-pair ratio"
        ),
        "pairs": len(traced),
        "untraced_seconds": round(median_untraced, 4),
        "traced_seconds": round(median_traced, 4),
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
    print("bench: campaign_grid_serial ...", flush=True)
    benches["campaign_grid_serial"] = bench_campaign_grid_serial(args.repeats)

    document = {
        "schema_version": "1.0",
        "generated_by": "tools/run_benches.py",
        "python": platform.python_version(),
        "platform": platform.platform(),
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
            f" ({bench['overhead_us_per_window']} us/window)"
            if "overhead_us_per_window" in bench
            else ""
        )
        if headline is None and "flat_us_per_hit" in bench:
            print(
                f"  {name}: flat {bench['flat_us_per_hit']} us/hit, "
                f"default cache {bench['cache_us_per_hit']} us/hit"
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
