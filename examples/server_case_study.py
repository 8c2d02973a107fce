"""Chapter 5 case study: DTM policies on the modeled servers.

Runs the W1 batch on the PE1950 and SR1500AL models under the four
measured policies (DTM-BW, DTM-ACG, DTM-CDVFS, DTM-COMB), printing the
normalized runtime, L2 miss reduction, CPU power and memory inlet
temperature — the Fig. 5.6 / 5.8 / 5.9 / 5.10 quantities.

Run:  python examples/server_case_study.py [mix]
"""

import sys

from repro.analysis.tables import format_table
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMCOMB
from repro.dtm.base import NoLimitPolicy
from repro.testbed import PE1950, SR1500AL, ServerSimulator, ServerWindowModel


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "W1"
    for platform in (PE1950, SR1500AL):
        window_model = ServerWindowModel(platform)
        policies = [
            NoLimitPolicy(cores=4),
            DTMBW(platform.levels),
            DTMACG(platform.levels, min_active=2),
            DTMCDVFS(platform.levels),
            DTMCOMB(platform.levels, min_active=2),
        ]
        baseline = None
        rows = []
        for policy in policies:
            result = ServerSimulator(
                platform, policy, mix, copies=2, window_model=window_model
            ).run()
            if baseline is None:
                baseline = result
            rows.append(
                [
                    policy.name,
                    result.runtime_s / baseline.runtime_s,
                    result.l2_misses / baseline.l2_misses,
                    result.average_cpu_power_w,
                    result.mean_inlet_c,
                    result.peak_amb_c,
                ]
            )
        print(f"\n{platform.name} — {mix}, ambient {platform.system_ambient_c} degC, "
              f"AMB TDP {platform.levels.amb_tdp_c} degC:\n")
        print(
            format_table(
                ["policy", "norm runtime", "norm L2 misses", "CPU power (W)",
                 "inlet (degC)", "peak AMB (degC)"],
                rows,
            )
        )


if __name__ == "__main__":
    main()
