"""End-to-end checks of the paper's headline result shapes.

These run small (copies=1) batches through the full two-level simulator
and assert the *orderings and directions* the paper reports — the same
shapes EXPERIMENTS.md records quantitatively at the benchmark scale.
"""

import pytest

from repro.core.simulator import SimulationConfig, TwoLevelSimulator
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMTS, PIDPolicy
from repro.dtm.base import NoLimitPolicy
from repro.params.thermal_params import INTEGRATED_AMBIENT


@pytest.fixture(scope="module")
def w1_results(window_model):
    """All policies on W1, AOHS_1.5, isolated model, copies=1."""
    config = SimulationConfig(mix_name="W1", copies=1)
    results = {}
    for key, policy in (
        ("no-limit", NoLimitPolicy()),
        ("ts", DTMTS()),
        ("bw", DTMBW()),
        ("acg", DTMACG()),
        ("cdvfs", DTMCDVFS()),
        ("bw+pid", PIDPolicy("bw")),
        ("acg+pid", PIDPolicy("acg")),
        ("cdvfs+pid", PIDPolicy("cdvfs")),
    ):
        results[key] = TwoLevelSimulator(config, policy, window_model=window_model).run()
    return results


def test_thermal_limit_costs_performance(w1_results):
    """Fig. 4.3: running time under DTM well above no-limit (up to ~2.4x)."""
    norm = w1_results["ts"].runtime_s / w1_results["no-limit"].runtime_s
    assert 1.2 < norm < 2.6


def test_bw_approximately_equals_ts(w1_results):
    """§4.4.2: DTM-BW has almost the same performance as DTM-TS."""
    ratio = w1_results["bw"].runtime_s / w1_results["ts"].runtime_s
    assert 0.93 < ratio < 1.07


def test_acg_beats_ts_substantially(w1_results):
    """§4.4.2: ACG improves up to 29.6% over TS (W1 is the best case)."""
    improvement = 1 - w1_results["acg"].runtime_s / w1_results["ts"].runtime_s
    assert improvement > 0.08


def test_cdvfs_beats_ts_modestly(w1_results):
    """§4.4.2: CDVFS improves ~3.6% on average under the isolated model."""
    improvement = 1 - w1_results["cdvfs"].runtime_s / w1_results["ts"].runtime_s
    assert 0.0 < improvement < 0.15


def test_scheme_ordering_isolated(w1_results):
    """Isolated model: ACG < CDVFS < TS/BW in runtime."""
    assert w1_results["acg"].runtime_s < w1_results["cdvfs"].runtime_s
    assert w1_results["cdvfs"].runtime_s < max(
        w1_results["ts"].runtime_s, w1_results["bw"].runtime_s
    )


def test_pid_improves_every_scheme(w1_results):
    """§4.4.2: the PID controller further improves BW, ACG and CDVFS."""
    for scheme in ("bw", "acg", "cdvfs"):
        assert (
            w1_results[f"{scheme}+pid"].runtime_s < w1_results[scheme].runtime_s
        ), scheme


def test_pid_holds_near_target_without_overshoot(w1_results):
    """Figs. 4.5-4.8: PID pins the AMB near 109.8 and never crosses 110."""
    for scheme in ("acg+pid", "cdvfs+pid"):
        result = w1_results[scheme]
        assert result.peak_amb_c <= 110.0
        assert result.peak_amb_c >= 109.5


def test_acg_cuts_traffic_most(w1_results):
    """Fig. 4.4: ACG's cache relief cuts total traffic; CDVFS trims a
    little; TS/BW do not change it."""
    base = w1_results["no-limit"].traffic_bytes
    assert w1_results["acg"].traffic_bytes < 0.95 * base
    assert w1_results["cdvfs"].traffic_bytes < 1.0 * base
    assert w1_results["ts"].traffic_bytes == pytest.approx(base, rel=0.02)
    assert w1_results["acg"].traffic_bytes < w1_results["cdvfs"].traffic_bytes


def test_pid_slightly_raises_traffic_vs_plain(w1_results):
    """§4.4.2: PID runs more cores/faster clocks, costing a little
    traffic back."""
    assert (
        w1_results["acg+pid"].traffic_bytes
        >= w1_results["acg"].traffic_bytes * 0.999
    )


def test_cdvfs_saves_cpu_energy(w1_results):
    """Fig. 4.10: CDVFS cuts processor energy by tens of percent vs TS."""
    saving = 1 - w1_results["cdvfs"].cpu_energy_j / w1_results["ts"].cpu_energy_j
    assert saving > 0.20


def test_bw_wastes_cpu_energy(w1_results):
    """Fig. 4.10: BW burns ~47-48% more processor energy than TS."""
    extra = w1_results["bw"].cpu_energy_j / w1_results["ts"].cpu_energy_j - 1
    assert extra > 0.25


def test_acg_saves_memory_energy(w1_results):
    """Fig. 4.9: ACG reduces FBDIMM energy vs TS (~16%)."""
    saving = 1 - w1_results["acg"].memory_energy_j / w1_results["ts"].memory_energy_j
    assert saving > 0.05


def test_integrated_model_promotes_cdvfs(window_model):
    """§4.5.1: under the integrated model CDVFS closes the gap to ACG
    (and beats it outright in the paper)."""
    config = SimulationConfig(mix_name="W1", copies=1, ambient=INTEGRATED_AMBIENT)
    acg = TwoLevelSimulator(config, DTMACG(), window_model=window_model).run()
    cdvfs = TwoLevelSimulator(config, DTMCDVFS(), window_model=window_model).run()
    iso = SimulationConfig(mix_name="W1", copies=1)
    acg_iso = TwoLevelSimulator(iso, DTMACG(), window_model=window_model).run()
    cdvfs_iso = TwoLevelSimulator(iso, DTMCDVFS(), window_model=window_model).run()
    gap_isolated = cdvfs_iso.runtime_s / acg_iso.runtime_s
    gap_integrated = cdvfs.runtime_s / acg.runtime_s
    assert gap_integrated < gap_isolated


def test_stronger_interaction_hurts_everyone(window_model):
    """Fig. 4.13: higher interaction degree, longer runtimes."""
    runtimes = []
    for degree in (1.0, 2.0):
        config = SimulationConfig(
            mix_name="W1",
            copies=1,
            ambient=INTEGRATED_AMBIENT.with_interaction(degree),
        )
        result = TwoLevelSimulator(config, DTMBW(), window_model=window_model).run()
        runtimes.append(result.runtime_s)
    assert runtimes[1] > runtimes[0]


def test_higher_trp_performs_better(window_model):
    """Fig. 4.2: a TRP closer to the TDP loses less performance."""
    low = SimulationConfig(mix_name="W1", copies=1)
    result_low = TwoLevelSimulator(
        low, DTMTS(amb_trp_c=106.0), window_model=window_model
    ).run()
    result_high = TwoLevelSimulator(
        low, DTMTS(amb_trp_c=109.5), window_model=window_model
    ).run()
    assert result_high.runtime_s < result_low.runtime_s
