"""Fig. 4.3 — normalized running time of every DTM scheme.

Seven schemes (TS, BW, ACG, CDVFS, and BW/ACG/CDVFS with PID) on W1–W8
under both cooling configurations, normalized to the no-limit ideal.
Expected shape: TS ~ BW worst, ACG best (avg ~1.5 vs ~1.8), CDVFS in
between, PID improving each (§4.4.2).

``test_fig4_3_kernel_speedup`` additionally proves the batched thermal
kernel, driven through ``load`` and ``step``, beats the per-node
``MemSpot`` oracle on the same window stream and matches it bit for bit.
"""

import random
import time

from _common import COOLINGS, bench_mixes, copies, emit, prefetch, run_once

from repro.analysis.specs import Chapter4Spec, run_chapter4
from repro.analysis.normalize import geometric_mean
from repro.analysis.tables import format_table
from repro.campaign import sweep
from repro.core.kernel import BatchedMemSpot
from repro.core.memspot import MemSpot
from repro.params.thermal_params import AOHS_1_5, ISOLATED_AMBIENT

POLICIES = ("ts", "bw", "acg", "cdvfs", "bw+pid", "acg+pid", "cdvfs+pid")


def _figure(cooling: str) -> str:
    n = copies()
    prefetch(sweep(
        Chapter4Spec,
        {"mix": bench_mixes(), "policy": ("no-limit",) + POLICIES},
        cooling=cooling, copies=n,
    ))
    rows = []
    columns: dict[str, list[float]] = {policy: [] for policy in POLICIES}
    for mix in bench_mixes():
        baseline = run_chapter4(
            Chapter4Spec(mix=mix, policy="no-limit", cooling=cooling, copies=n)
        )
        row: list[object] = [mix]
        for policy in POLICIES:
            result = run_chapter4(
                Chapter4Spec(mix=mix, policy=policy, cooling=cooling, copies=n)
            )
            normalized = result.runtime_s / baseline.runtime_s
            columns[policy].append(normalized)
            row.append(normalized)
        rows.append(row)
    rows.append(["gmean"] + [geometric_mean(columns[p]) for p in POLICIES])
    return format_table(["mix"] + [p.upper() for p in POLICIES], rows)


def _drive_scalar(memspot, windows):
    start = time.perf_counter()
    sample = None
    for read_bps, write_bps, heating in windows:
        sample = memspot.step(read_bps, write_bps, heating, 0.01)
    return time.perf_counter() - start, sample


def _drive_batched(kernel, windows):
    start = time.perf_counter()
    sample = None
    for read_bps, write_bps, heating in windows:
        sample = kernel.step(kernel.load(read_bps, write_bps, heating), 0.01)
    return time.perf_counter() - start, sample


def _kernel_speedup() -> str:
    """Batched kernel vs the scalar oracle on identical inputs."""
    rng = random.Random(1234)
    windows = [
        (rng.random() * 2.2e10, rng.random() * 1.1e10, rng.random() * 8.0)
        for _ in range(20_000)
    ]
    scalar_s = []
    batched_s = []
    scalar_sample = batched_sample = None
    for _ in range(3):
        elapsed, scalar_sample = _drive_scalar(
            MemSpot(AOHS_1_5, ISOLATED_AMBIENT), windows
        )
        scalar_s.append(elapsed)
        elapsed, batched_sample = _drive_batched(
            BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT), windows
        )
        batched_s.append(elapsed)
    # Not merely close: the batched kernel must be bit-identical.
    assert scalar_sample == batched_sample
    micro_scalar, micro_batched = min(scalar_s), min(batched_s)
    assert micro_batched < micro_scalar, (
        f"batched kernel not faster: {micro_batched:.3f}s vs {micro_scalar:.3f}s"
    )
    rows = [
        ["20k-window stream", micro_scalar, micro_batched,
         micro_scalar / micro_batched],
    ]
    return format_table(
        ["harness", "scalar(s)", "batched(s)", "speedup"], rows
    )


def test_fig4_3_kernel_speedup(benchmark):
    emit("fig4_3_kernel_speedup", run_once(benchmark, _kernel_speedup))


def test_fig4_3a_fdhs(benchmark):
    emit("fig4_3a_runtime_fdhs", run_once(benchmark, lambda: _figure("FDHS_1.0")))


def test_fig4_3b_aohs(benchmark):
    emit("fig4_3b_runtime_aohs", run_once(benchmark, lambda: _figure("AOHS_1.5")))
