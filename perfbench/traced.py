"""Traced runs of the simulation workloads.

One unit of the workload runs untraced, then again with span wrappers
installed.  The two must produce the same digest (and, for the sweep,
the same gang step-path counts, so the wrappers never divert a gang off
its vector path); the ratio of their normalized times is the tracing
overhead.
"""

from __future__ import annotations

import os

import layers
import sims
from checks import digest
from tracing import Tracer, install_miss_counter, store_counts, wrapper_cost_ns


def _total(sweep: dict) -> float:
    return sum(t.norm_s for t in sweep["segments"])


def _scale(times) -> float:
    raw = sum(t.raw_s for t in times)
    return sum(t.norm_s for t in times) / raw if raw else 1.0


def trace_sim(clock, args, cells, report, out_dir: str) -> None:
    tracer = Tracer()
    if args.workload == "cells_solo":
        unit = sims.solo_cells(args.seed, sims.SECONDS_PER_SOLO_ROUND)
        plain_payloads, plain_times, _ = sims.run_solo_list(clock, unit)
        plain = {"payloads": plain_payloads, "time": sum(t.norm_s for t in plain_times)}
    else:
        unit = cells
        sweep = sims.run_sweep(clock, unit)
        plain = {"payloads": sweep["payloads"], "time": _total(sweep), "sweep": sweep}
    before = {**sims.gang_counts(), **store_counts()}
    tracer.install()
    install_miss_counter(tracer)
    try:
        if args.workload == "cells_solo":
            payloads, times, windows = sims.run_solo_list(clock, unit, tracer)
            traced_time = sum(t.norm_s for t in times)
            total_windows = sum(windows)
            plan_s = 0.0
        else:
            sweep = sims.run_sweep(clock, unit, tracer)
            payloads, times = sweep["payloads"], sweep["segments"]
            traced_time = _total(sweep)
            total_windows = sweep["windows"]
            plan_s = plain["sweep"]["segments"][0].norm_s
    finally:
        tracer.uninstall()
    after = {**sims.gang_counts(), **store_counts()}
    report.attempted += 2 * len(unit)
    report.digest = digest(payloads)
    if digest(plain["payloads"]) != report.digest:
        report.mismatch("traced payloads differ from the untraced pass")
    if args.workload == "sweep_gang":
        for path in sims.STEP_PATHS:
            name = f"gang.step_path.{path}"
            if plain["sweep"]["counts"][name] != after[name] - before[name]:
                report.mismatch(f"traced {name} differs from the untraced pass")
    scale = _scale(times)
    summary = tracer.summary()
    values = layers.layer_metrics(summary["totals"], summary["extra"], total_windows, scale)
    values["engine.windows"] = total_windows
    for name in after:
        values[name] = int(after[name] - before[name])
    values["gang.plan_s"] = plan_s
    values["trace.overhead"] = traced_time / plain["time"]
    values["trace.wrapper_ns"] = wrapper_cost_ns()
    report.layers = layers.complete(values)
    report.note("trace.untraced_s", plain["time"], "s", len(unit))
    report.note("trace.traced_s", traced_time, "s", len(unit))
    report.note("trace.spans_kept", summary["spans_kept"], "count")
    if summary["missing"]:
        report.note("trace.unwrapped", ",".join(summary["missing"]), "")
    table = layers.self_time_table(summary["totals"], scale)
    layers.print_table(table, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-{args.seed}")
    tracer.write(f"{stem}.trace.json")
    layers.write_table(table, f"{stem}.layers.txt")
    report.note("trace.file", f"{stem}.trace.json", "")
