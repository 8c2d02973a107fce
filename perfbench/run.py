#!/usr/bin/env python3
"""Benchmark of the DRAM thermal reproduction, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload cells_solo --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md): ``cells_solo``, ``sweep_gang``,
``service_mix``.  With ``--trace 0`` the run times the workload with
tracing off and its last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it runs one unit of the workload
untraced and once more with span wrappers installed, and the JSON
carries the per-layer metrics.  Every run checks the program's outputs;
any mismatch makes it exit 1.  A run in a directory without the
program's sources exits 2 without a result line.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from timing import ProbeClock  # noqa: E402

#: Started before anything else is imported, so set-up time covers the
#: program's imports.
CLOCK = ProbeClock()
CLOCK.start()
START = CLOCK.mark()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

WORKLOADS = ("cells_solo", "sweep_gang", "service_mix")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Traces and temporary server state go here (inside the checkout).
OUT_DIR = ".perfbench_out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up of the workload and print it (used by the "
        "run itself to sample set-up time in fresh processes)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    src = os.path.abspath("src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            "perfbench: no src/repro under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, src)


def child_setup_samples(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up seconds measured in ``count`` fresh processes."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    with CLOCK.paused():
        for _ in range(count):
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
            if done.returncode != 0:
                raise RuntimeError(
                    f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}"
                )
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_sim(args: argparse.Namespace, report) -> None:
    import sims
    import traced
    from checks import check_goldens

    setup = sims.setup_cells_solo if args.workload == "cells_solo" else sims.setup_sweep_gang
    cells = setup(args)
    own_setup = CLOCK.since(START)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup.norm_s, "raw_s": own_setup.raw_s}))
        return
    if args.trace:
        traced.trace_sim(CLOCK, args, cells, report, OUT_DIR)
    else:
        if args.workload == "cells_solo":
            sims.measure_cells_solo(CLOCK, cells, report)
        else:
            sweeps = sims.measure_sweep_gang(CLOCK, cells, args.seconds, report)
        samples = [own_setup.norm_s] + child_setup_samples(args, SETUP_SAMPLES - 1)
        report.metric("setup_s", sims.median(samples), "s", len(samples))
        report.note("raw.own_setup_s", own_setup.raw_s, "s")
        if args.workload == "sweep_gang":
            sims.check_sweep(cells, sweeps[0], args.seed, report)
    check_goldens(report)


def main(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
        import_program()
        from report import Report

        report = Report(args.workload)
        if args.workload == "service_mix":
            import service

            if args.setup_only:
                print("perfbench: service_mix samples set-up in-process", file=sys.stderr)
                return 2
            service.run(CLOCK, START, args, report, OUT_DIR)
        else:
            run_sim(args, report)
    except Exception:  # noqa: BLE001 -- report and fail the run
        traceback.print_exc()
        return 1
    finally:
        CLOCK.stop()
    if args.setup_only:
        return 0
    report.print_human()
    print(report.result_line(bool(args.trace)))
    return 1 if report.problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
