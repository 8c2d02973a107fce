#!/usr/bin/env python3
"""A/A steadiness check: the same code, several seeds, one spread per metric.

Run from the repository root::

    python3 perfbench/aa.py --workloads cells_solo,sweep_gang,service_mix --seeds 1-10
    python3 perfbench/aa.py --workloads sweep_gang --seeds 7 --counts

For every workload and end-to-end metric it prints the median of the
runs and the quartile spread, (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound from BENCHMARK.json.  A spread under a third of the
bound is steady, and any failed operation fails the check.
``--counts`` instead runs ``--trace 1`` twice per seed and requires
every count-valued per-layer metric, ``attempted`` and ``failed`` to
repeat exactly.  Runs are sequential; each prints its result line to
``.perfbench_out/aa/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int, log_dir: str) -> dict:
    command = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    with open(os.path.join(log_dir, f"{workload}-{seed}-{trace}.log"), "a") as handle:
        handle.write(done.stdout)
        handle.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log_dir = os.path.join(".perfbench_out", "aa")
    os.makedirs(log_dir, exist_ok=True)
    seeds = seeds_from(args.seeds)
    status = 0
    for workload in args.workloads.split(","):
        if args.counts:
            for seed in seeds:
                first, second = (run_once(bench, workload, seed, 1, log_dir) for _ in range(2))
                differ = [
                    name for name, metric in first["metrics"].items()
                    if metric["unit"] == "count"
                    and metric["value"] != second["metrics"][name]["value"]
                ] + [key for key in ("attempted", "failed") if first[key] != second[key]]
                verdict = "identical" if not differ else f"DIFFER: {', '.join(differ)}"
                print(f"{workload} seed {seed}: counts {verdict}", flush=True)
                status |= bool(differ)
            continue
        runs = []
        for seed in seeds:
            result = run_once(bench, workload, seed, 0, log_dir)
            runs.append(result)
            shown = " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: failed={result['failed']} {shown}", flush=True)
            status |= result["failed"] != 0
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid, width = spread(values)
            verdict = "steady" if width < bound / 3 else "ok" if width <= bound else "NOISY"
            if name != "setup_s" and width > bound:
                status = 1
            print(
                f"  {workload:12s} {name:16s} median {mid:12.5g}  spread {width:7.2%}"
                f"  bound {bound:.0%}  {verdict}",
                flush=True,
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
