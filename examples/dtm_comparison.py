"""Compare every DTM scheme on one workload (the Fig. 4.3 experiment).

Runs W1 under all seven schemes (TS, BW, ACG, CDVFS and the PID
variants) plus the no-limit ideal, and prints normalized runtime,
traffic, energies and peak temperatures.

Run:  python examples/dtm_comparison.py [mix] [cooling]
e.g.  python examples/dtm_comparison.py W2 FDHS_1.0
"""

import sys

from repro import SimulationConfig, TwoLevelSimulator
from repro.analysis.tables import format_table
from repro.core.windowmodel import WindowModel
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMTS, PIDPolicy
from repro.dtm.base import NoLimitPolicy
from repro.params.thermal_params import COOLING_CONFIGS


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "W1"
    cooling = sys.argv[2] if len(sys.argv) > 2 else "AOHS_1.5"
    window_model = WindowModel()
    config = SimulationConfig(mix_name=mix, copies=2, cooling=COOLING_CONFIGS[cooling])

    policies = [
        NoLimitPolicy(),
        DTMTS(),
        DTMBW(),
        DTMACG(),
        DTMCDVFS(),
        PIDPolicy("bw"),
        PIDPolicy("acg"),
        PIDPolicy("cdvfs"),
    ]
    baseline = None
    rows = []
    for policy in policies:
        result = TwoLevelSimulator(config, policy, window_model=window_model).run()
        if baseline is None:
            baseline = result
        rows.append(
            [
                policy.name,
                result.runtime_s / baseline.runtime_s,
                result.traffic_bytes / baseline.traffic_bytes,
                result.cpu_energy_j / baseline.cpu_energy_j,
                result.memory_energy_j / baseline.memory_energy_j,
                result.peak_amb_c,
                result.peak_dram_c,
            ]
        )
    print(f"Workload {mix}, cooling {cooling}, normalized to No-limit:\n")
    print(
        format_table(
            ["scheme", "runtime", "traffic", "cpu E", "mem E", "peak AMB", "peak DRAM"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
