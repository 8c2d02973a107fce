"""Extension benches for the paper's §6 future-work directions.

- **Cache-aware job scheduling**: the batch refill step picks the
  waiting job minimizing predicted shared-L2 contention instead of
  round-robin.  Under a thermal limit, less traffic = more headroom.
- **DTM-COMB on the simulated platform**: Chapter 5 proposes combining
  gating and DVFS on the servers; here it runs on the Chapter 4
  simulated platform against plain ACG and CDVFS.
"""

from _common import bench_mixes, copies, emit, run_once

from repro.analysis.normalize import geometric_mean
from repro.analysis.tables import format_table
from repro.core.simulator import SimulationConfig, TwoLevelSimulator
from repro.core.windowmodel import WindowModel
from repro.dtm import DTMACG, DTMCDVFS, DTMCOMB
from repro.dtm.base import NoLimitPolicy
from repro.params.emergency import SIMULATION_LEVELS


def test_ext_cache_aware_scheduling(benchmark):
    def build():
        model = WindowModel()
        n = copies()
        rows = []
        for mix in bench_mixes()[:4]:
            base_cfg = SimulationConfig(mix_name=mix, copies=n)
            aware_cfg = SimulationConfig(
                mix_name=mix, copies=n, cache_aware_scheduling=True
            )
            rr = TwoLevelSimulator(base_cfg, DTMACG(), window_model=model).run()
            aware = TwoLevelSimulator(aware_cfg, DTMACG(), window_model=model).run()
            rows.append(
                [mix,
                 aware.runtime_s / rr.runtime_s,
                 aware.traffic_bytes / rr.traffic_bytes]
            )
        return format_table(
            ["mix", "cache-aware/RR runtime", "cache-aware/RR traffic"], rows
        )

    emit("ext_cache_aware_scheduling", run_once(benchmark, build))


def test_ext_comb_on_simulated_platform(benchmark):
    def build():
        model = WindowModel()
        n = copies()
        policies = (
            ("ACG", lambda: DTMACG(SIMULATION_LEVELS)),
            ("CDVFS", lambda: DTMCDVFS(SIMULATION_LEVELS)),
            ("COMB", lambda: DTMCOMB(SIMULATION_LEVELS, min_active=1)),
        )
        columns = {name: [] for name, _ in policies}
        rows = []
        for mix in bench_mixes()[:4]:
            config = SimulationConfig(mix_name=mix, copies=n)
            baseline = TwoLevelSimulator(
                config, NoLimitPolicy(), window_model=model
            ).run()
            row = [mix]
            for name, make in policies:
                result = TwoLevelSimulator(config, make(), window_model=model).run()
                normalized = result.runtime_s / baseline.runtime_s
                columns[name].append(normalized)
                row.append(normalized)
            rows.append(row)
        rows.append(["gmean"] + [geometric_mean(columns[name]) for name, _ in policies])
        return format_table(["mix", "ACG", "CDVFS", "COMB"], rows)

    emit("ext_comb_simulated", run_once(benchmark, build))
