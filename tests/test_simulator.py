"""Two-level simulator integration tests (small batches)."""

import pytest

from repro.analysis.specs import (
    CHAPTER4_POLICY_CHOICES,
    Chapter4Spec,
)
from repro.campaign import engine_for_spec
from repro.core.simulator import DTM_OVERHEAD_S, SimulationConfig, TwoLevelSimulator
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMTS
from repro.dtm.base import NoLimitPolicy
from repro.engine.codec import state_dict
from repro.errors import ConfigurationError, SimulationError
from repro.params.thermal_params import FDHS_1_0, INTEGRATED_AMBIENT


def _run(policy, window_model, **kwargs):
    defaults = dict(mix_name="W1", copies=1)
    defaults.update(kwargs)
    config = SimulationConfig(**defaults)
    return TwoLevelSimulator(config, policy, window_model=window_model).run()


def test_no_limit_completes_batch(window_model):
    result = _run(NoLimitPolicy(), window_model)
    assert result.finished_jobs == 4
    assert result.runtime_s > 0
    assert result.traffic_bytes > 0
    assert result.instructions > 0


def test_no_limit_exceeds_tdp(window_model):
    # Without DTM the AMB sails past its 110 degC limit (the premise of
    # the whole paper).
    result = _run(NoLimitPolicy(), window_model)
    assert result.peak_amb_c > 110.0


def test_every_dtm_scheme_respects_tdp(window_model):
    # A reading is taken every 10 ms, so the temperature can creep a few
    # millidegrees past the trigger inside one interval — the same
    # sensor-sampling slack the paper's TRP margin absorbs (§4.4.1).
    for policy in (DTMTS(), DTMBW(), DTMACG(), DTMCDVFS()):
        result = _run(policy, window_model)
        assert result.peak_amb_c <= 110.0 + 0.1, policy.name
        assert result.peak_dram_c <= 85.0 + 0.1, policy.name


def test_dtm_costs_runtime(window_model):
    baseline = _run(NoLimitPolicy(), window_model)
    throttled = _run(DTMTS(), window_model)
    assert throttled.runtime_s > baseline.runtime_s
    assert throttled.finished_jobs == baseline.finished_jobs


def test_acg_reduces_traffic(window_model):
    baseline = _run(NoLimitPolicy(), window_model)
    acg = _run(DTMACG(), window_model)
    assert acg.traffic_bytes < baseline.traffic_bytes


def test_instructions_are_workload_invariant(window_model):
    """Every policy must retire the same total instructions — the batch
    is fixed work, only its schedule changes."""
    results = [
        _run(policy, window_model)
        for policy in (NoLimitPolicy(), DTMTS(), DTMACG())
    ]
    totals = [r.instructions for r in results]
    assert max(totals) / min(totals) < 1.001


def test_trace_recorded_at_one_second_resolution(window_model):
    result = _run(NoLimitPolicy(), window_model)
    assert len(result.trace) == pytest.approx(result.runtime_s, abs=2)


def test_trace_can_be_disabled(window_model):
    result = _run(NoLimitPolicy(), window_model, record_trace=False)
    assert len(result.trace) == 0


def test_fdhs_cooling_binds_on_dram(window_model):
    result = _run(DTMTS(), window_model, cooling=FDHS_1_0)
    # The DRAM chips are the constraint under FDHS_1.0 (§4.4.1): they
    # approach their TDP much closer than the AMB approaches its own.
    assert (85.0 - result.peak_dram_c) < (110.0 - result.peak_amb_c)


def test_integrated_model_heats_more(window_model):
    isolated = _run(DTMTS(), window_model)
    integrated = _run(DTMTS(), window_model, ambient=INTEGRATED_AMBIENT)
    # Same inlet-to-threshold headroom philosophy, but CPU preheating
    # varies the ambient; the run completes and the mean ambient sits
    # above the integrated model's (lower) inlet temperature.
    assert integrated.mean_ambient_c > 45.0
    assert isolated.mean_ambient_c == pytest.approx(50.0)


def test_shutdown_fraction_positive_for_ts(window_model):
    result = _run(DTMTS(), window_model)
    assert result.shutdown_fraction > 0.0


def test_dtm_interval_overhead_charged(window_model):
    fast = _run(NoLimitPolicy(), window_model, dtm_interval_s=0.010)
    slow = _run(NoLimitPolicy(), window_model, dtm_interval_s=0.001)
    # 25 us of every 1 ms interval is overhead (2.5%) vs 0.25% at 10 ms.
    assert slow.runtime_s > fast.runtime_s * 1.015


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(dtm_interval_s=0.0)
    with pytest.raises(ConfigurationError, match="dtm_interval_s"):
        SimulationConfig(dtm_interval_s=DTM_OVERHEAD_S)
    with pytest.raises(ConfigurationError):
        SimulationConfig(copies=0)


def test_horizon_guard(window_model, monkeypatch):
    monkeypatch.setattr("repro.engine.stepping.MAX_SIM_S", 1.0)
    config = SimulationConfig(mix_name="W1", copies=1)
    with pytest.raises(SimulationError):
        TwoLevelSimulator(config, DTMTS(), window_model=window_model).run()


def test_normalization_helpers(window_model):
    baseline = _run(NoLimitPolicy(), window_model)
    other = _run(DTMTS(), window_model)
    assert other.normalized_runtime(baseline) > 1.0
    assert other.normalized_traffic(baseline) == pytest.approx(
        other.traffic_bytes / baseline.traffic_bytes
    )


class _NeverStores(dict):
    """A window cache that forgets every entry: each window recomputes."""

    def __setitem__(self, key, value) -> None:
        pass


_CH4_CACHE_CELLS = [
    Chapter4Spec(mix="W1", policy=policy, copies=1)
    for policy in CHAPTER4_POLICY_CHOICES
] + [Chapter4Spec(mix="W1", policy="comb", ambient="integrated", copies=1)]


def _cache_aware_engine():
    # Two copies per application, so the refill choices are not forced.
    config = SimulationConfig(
        mix_name="W2", copies=2, cache_aware_scheduling=True,
        record_trace=False,
    )
    return TwoLevelSimulator(config, DTMACG()).engine()


_CH4_CACHE_ENGINES = {
    f"{spec.policy}-{spec.ambient}": (lambda spec=spec: engine_for_spec(spec))
    for spec in _CH4_CACHE_CELLS
}
_CH4_CACHE_ENGINES["acg-cache_aware"] = _cache_aware_engine


@pytest.mark.parametrize(
    "build", list(_CH4_CACHE_ENGINES.values()), ids=list(_CH4_CACHE_ENGINES)
)
def test_window_cache_matches_recomputing_every_window(build):
    """The engine's window cache, thermal load included, replays
    exactly what a fresh computation of each window would apply; the
    cache-aware scheduler's refills included."""
    cached = build()
    uncached = build()
    uncached._window_cache = _NeverStores()
    assert state_dict(cached.run_to_completion()) == state_dict(
        uncached.run_to_completion()
    )
