"""The two in-process simulation workloads: ``cells_solo`` and ``sweep_gang``.

``cells_solo`` runs Chapter 4 cells one at a time through
``run_payload(spec, NullStore())`` with the shared level-1 memo emptied
before each cell, as in a fresh ``repro simulate`` process.
``sweep_gang`` plans a 32-cell inlet sweep with ``plan_gangs`` and steps
the gangs in slices of ``SLICE_WINDOWS`` windows with the level-1 memo
warm.  Both build every input from the seed alone, so the work -- and
every count -- depends on the seed and the run length, never on how
fast the host is.
"""

from __future__ import annotations

import random
import resource

from repro.analysis import specs as specs_module
from repro.analysis.specs import CHAPTER4_POLICY_CHOICES, Chapter4Spec
from repro.campaign import Campaign, NullStore
from repro.campaign.engine import run_payload
from repro.campaign.spec import runner_for
from repro.cluster import VectorBackend
from repro.engine import gang as gang_module
from repro.obs.metrics import METRICS
from repro.workloads.mixes import SIMULATION_MIXES

from checks import canonical, digest
from timing import median, quantile

#: Seconds of measured work one ``cells_solo`` policy column stands for.
SECONDS_PER_SOLO_ROUND = 4.0
#: Seconds of measured work one 32-cell sweep stands for.
SECONDS_PER_SWEEP = 5.0
#: Gang windows per timed slice (about 0.1 s on the reference host).
SLICE_WINDOWS = 500
#: The sweep: (mix, policy, cells); inlet shifts span +-2 degC.
SWEEP_GROUPS = (("W1", "ts", 12), ("W2", "cdvfs", 12), ("W1", "no-limit", 8))
SWEEP_BATCH_CELLS = 16
#: Sweep cells rerun solo after the timed section.
SOLO_RECHECKS = 3
STEP_PATHS = ("vector", "fallback", "leader")


def clear_level1_memo() -> None:
    """Empty the shared level-1 window-model memo (a fresh process's state)."""
    specs_module._window_models.clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def windows_of(spec: Chapter4Spec, payload: dict) -> int:
    """DTM windows a finished ch4 cell simulated."""
    return round(payload["runtime_s"] / spec.dtm_interval_s)


# -- inputs -----------------------------------------------------------------


def solo_cells(seed: int, seconds: float) -> list[Chapter4Spec]:
    """A policy-balanced draw: every Fig. 4.3 scheme the same number of
    times, mixes dealt round a seeded permutation, order shuffled.

    Balancing keeps the cost of the draw nearly the same for every
    seed, so seed-to-seed spread measures the program, not the draw.
    """
    rng = random.Random(seed)
    per_policy = max(1, round(seconds / SECONDS_PER_SOLO_ROUND))
    mixes = list(SIMULATION_MIXES)
    rng.shuffle(mixes)
    cells = []
    for index, policy in enumerate(CHAPTER4_POLICY_CHOICES):
        for k in range(per_policy):
            mix = mixes[(index * per_policy + k) % len(mixes)]
            cells.append(Chapter4Spec(mix=mix, policy=policy, copies=1))
    rng.shuffle(cells)
    return cells


def sweep_cells(seed: int) -> list[Chapter4Spec]:
    """The 32-cell inlet sweep: one jittered shift per equal stratum of
    [-2, +2] degC per group, so every seed covers the range evenly."""
    rng = random.Random(seed)
    cells = []
    for mix, policy, count in SWEEP_GROUPS:
        width = 4.0 / count
        shifts = [
            round(-2.0 + width * (k + rng.random()), 3) for k in range(count)
        ]
        rng.shuffle(shifts)
        cells.extend(
            Chapter4Spec(mix=mix, policy=policy, copies=1, inlet_delta_c=shift)
            for shift in shifts
        )
    return cells


# -- cells_solo ---------------------------------------------------------------


def run_solo_list(clock, cells, tracer=None):
    """Run each cell alone; returns (payloads, Timed per cell, windows)."""
    payloads, times, windows = [], [], []
    for index, spec in enumerate(cells):
        clear_level1_memo()
        if tracer is not None:
            tracer.set_trace(f"cell-{index}")
        mark = clock.mark()
        payload, _, _ = run_payload(spec, NullStore())
        times.append(clock.since(mark))
        payloads.append(payload)
        windows.append(windows_of(spec, payload))
    return payloads, times, windows


def setup_cells_solo(args) -> list[Chapter4Spec]:
    return solo_cells(args.seed, args.seconds)


def measure_cells_solo(clock, cells, report) -> None:
    payloads, times, windows = run_solo_list(clock, cells)
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    report.attempted += len(cells)
    report.digest = digest(payloads)
    norm = [t.norm_s for t in times]
    total_windows = sum(windows)
    report.metric("us_per_window", sum(norm) / total_windows * 1e6, "us", len(norm))
    report.metric("result_ms_p50", median(norm) * 1e3, "ms", len(norm))
    report.note("result_ms_p90", quantile(norm, 0.9) * 1e3, "ms", len(norm))
    report.metric("sweep_s", sum(norm), "s", len(norm))
    report.note("cell_ms_p50", median(norm) * 1e3, "ms", len(norm))
    raw = [t.raw_s for t in times]
    report.note("raw.cell_ms_p50", median(raw) * 1e3, "ms", len(raw))
    report.note("raw.us_per_window", sum(raw) / total_windows * 1e6, "us", len(raw))
    report.note("ref.probe_ms_mean", _mean_ref(times) * 1e3, "ms", len(times))
    report.counts["engine.windows"] = total_windows
    report.counts["cells"] = len(cells)


def _mean_ref(times) -> float:
    return sum(t.ref_s for t in times) / len(times)


# -- sweep_gang -----------------------------------------------------------------


def setup_sweep_gang(args) -> list[Chapter4Spec]:
    """The sweep's cells, after one solo cell per group at the nominal
    inlet has filled the level-1 memo."""
    for mix, policy, _ in SWEEP_GROUPS:
        run_payload(Chapter4Spec(mix=mix, policy=policy, copies=1), NullStore())
    return sweep_cells(args.seed)


def gang_counts() -> dict[str, float]:
    """The program's own gang counters (process-wide, so callers diff)."""
    counts = {
        "gang.planned": METRICS.counter_value("repro_gang_planned_total"),
        "gang.cells_ganged": METRICS.counter_value(
            "repro_gang_cells_total", placement="ganged"
        ),
        "gang.cells_solo": METRICS.counter_value(
            "repro_gang_cells_total", placement="solo"
        ),
    }
    for path in STEP_PATHS:
        counts[f"gang.step_path.{path}"] = METRICS.counter_value(
            "repro_gang_step_path_total", path=path
        )
    return counts


def run_sweep(clock, cells, tracer=None):
    """One sweep, timed as a fixed sequence of short segments.

    The segments -- the plan, every slice of every gang, each gang's
    finish, each solo leftover -- are the same work in every sweep of
    the same cells, so sweeps can be combined segment by segment.
    ``done_after[i]`` is the index of the segment after which cell
    ``i``'s result exists.
    """
    before = gang_counts()
    pairs = [(spec.key(), spec) for spec in cells]
    segments = []

    def timed(fn, *args, **kwargs):
        mark = clock.mark()
        result = fn(*args, **kwargs)
        segments.append(clock.since(mark))
        return result

    if tracer is not None:
        tracer.set_trace("plan")
    plan = timed(gang_module.plan_gangs, pairs, batch_cells=SWEEP_BATCH_CELLS)
    payload_by_key: dict[str, dict] = {}
    done_after: dict[str, int] = {}
    windows = 0
    for gang_index, planned in enumerate(plan.gangs):
        gang = planned.gang
        if tracer is not None:
            tracer.set_trace(f"gang-{gang_index}")
        while not gang.done:
            timed(gang.step_windows, SLICE_WINDOWS)
        payloads = timed(_finish, planned)
        payload_by_key.update(payloads)
        windows += sum(engine.windows for engine in gang.engines)
        for key in payloads:
            done_after[key] = len(segments) - 1
    for key, spec in plan.solo:
        if tracer is not None:
            tracer.set_trace(f"solo-{key[:8]}")
        payload, _, _ = timed(run_payload, spec, NullStore())
        payload_by_key[key] = payload
        windows += windows_of(spec, payload)
        done_after[key] = len(segments) - 1
    after = gang_counts()
    return {
        "payloads": [payload_by_key[key] for key, _ in pairs],
        "done_after": [done_after[key] for key, _ in pairs],
        "segments": segments,
        "windows": windows,
        "counts": {name: int(after[name] - before[name]) for name in after},
    }


def _finish(planned) -> dict[str, dict]:
    results = planned.gang.finish()
    return {
        key: runner_for(spec.kind).encode(result)
        for (key, spec), result in zip(planned.cells, results)
    }


def sweeps_for(seconds: float) -> int:
    return max(1, round(seconds / SECONDS_PER_SWEEP))


def combine_sweeps(sweeps: list[dict]) -> tuple[list[float], list[float]]:
    """Per-segment median over the sweeps, and its running total.

    A burst of host slowness hits one sweep's copy of a segment; the
    median across sweeps drops it.
    """
    per_segment = [
        median([sweep["segments"][i].norm_s for sweep in sweeps])
        for i in range(len(sweeps[0]["segments"]))
    ]
    running, total = [], 0.0
    for value in per_segment:
        total += value
        running.append(total)
    return per_segment, running


def measure_sweep_gang(clock, cells, seconds, report) -> list[dict]:
    sweeps = [run_sweep(clock, cells) for _ in range(sweeps_for(seconds))]
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    report.attempted += len(cells) * len(sweeps)
    first = sweeps[0]
    report.digest = digest(first["payloads"])
    for index, sweep in enumerate(sweeps[1:], start=2):
        if canonical(sweep["payloads"]) != canonical(first["payloads"]):
            report.mismatch(f"sweep {index} payloads differ from sweep 1")
        if (
            sweep["counts"] != first["counts"]
            or sweep["windows"] != first["windows"]
            or len(sweep["segments"]) != len(first["segments"])
        ):
            report.mismatch(f"sweep {index} work differs from sweep 1")
            return sweeps
    per_segment, running = combine_sweeps(sweeps)
    sweep_s = running[-1]
    latencies = [running[i] for i in first["done_after"]]
    segments = len(per_segment)
    report.metric("us_per_window", sweep_s / first["windows"] * 1e6, "us", segments)
    report.metric("result_ms_p50", median(latencies) * 1e3, "ms", len(latencies))
    report.note("result_ms_p90", quantile(latencies, 0.9) * 1e3, "ms", len(latencies))
    report.metric("sweep_s", sweep_s, "s", segments)
    raw = [sum(t.raw_s for t in sweep["segments"]) for sweep in sweeps]
    report.note("raw.sweep_s", median(raw), "s", len(sweeps))
    report.note("gang.plan_s", per_segment[0], "s", len(sweeps))
    every = [t for sweep in sweeps for t in sweep["segments"]]
    report.note("ref.probe_ms_mean", _mean_ref(every) * 1e3, "ms", len(every))
    report.counts["engine.windows"] = first["windows"]
    report.counts["cells"] = len(cells)
    report.counts.update(first["counts"])
    return sweeps


def check_sweep(cells, sweep, seed: int, report) -> None:
    """Solo reruns of a seeded sample and one VectorBackend campaign."""
    expected = {spec.key(): canonical(p) for spec, p in zip(cells, sweep["payloads"])}
    rng = random.Random(seed + 1)
    for spec in rng.sample(cells, SOLO_RECHECKS):
        report.attempted += 1
        payload, _, _ = run_payload(spec, NullStore())
        if canonical(payload) != expected[spec.key()]:
            report.mismatch(f"solo rerun of {spec.key()[:12]} differs from the gang")
    campaign = Campaign(cells, store=NullStore(), backend=VectorBackend())
    for spec, outcome in campaign.iter_outcomes():
        report.attempted += 1
        if canonical(outcome.payload) != expected[spec.key()]:
            report.mismatch(
                f"VectorBackend campaign cell {spec.key()[:12]} differs from the sweep"
            )
