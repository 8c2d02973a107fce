"""Server experiment runner integration tests."""

import json
from dataclasses import replace

import pytest

from repro.analysis import specs as specs_module
from repro.analysis.specs import (
    CHAPTER5_POLICIES,
    Chapter5Spec,
)
from repro.campaign import NullStore, engine_for_spec, run
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMCOMB
from repro.dtm.base import NoLimitPolicy
from repro.engine import EngineState
from repro.engine.codec import state_dict
from repro.engine.stepping import SteppingEngine
from repro.errors import ConfigurationError
from repro.testbed.performance import ServerWindowModel
from repro.testbed.platforms import PE1950, PLATFORMS, SR1500AL
from repro.testbed.runner import (
    HomogeneousStrategy,
    ServerSimulator,
    run_homogeneous,
)
from repro.workloads.profiles import get_app


def _run(platform, policy, model, **kwargs):
    defaults = dict(mix_name="W1", copies=1)
    defaults.update(kwargs)
    return ServerSimulator(platform, policy, window_model=model, **defaults).run()


def test_no_limit_completes(pe1950_model):
    result = _run(PE1950, NoLimitPolicy(cores=4), pe1950_model)
    assert result.finished_jobs == 4
    assert result.runtime_s > 0


def test_bw_respects_tdp(pe1950_model):
    result = _run(PE1950, DTMBW(PE1950.levels), pe1950_model)
    assert result.peak_amb_c <= PE1950.levels.amb_tdp_c + 0.5


def test_policies_slower_than_no_limit(pe1950_model):
    base = _run(PE1950, NoLimitPolicy(cores=4), pe1950_model)
    for policy in (
        DTMBW(PE1950.levels),
        DTMACG(PE1950.levels, min_active=2),
        DTMCDVFS(PE1950.levels),
    ):
        result = _run(PE1950, policy, pe1950_model)
        assert result.runtime_s > base.runtime_s, policy.name


def test_proposed_schemes_beat_bw(pe1950_model):
    """The headline Chapter 5 result on the PE1950."""
    bw = _run(PE1950, DTMBW(PE1950.levels), pe1950_model)
    acg = _run(PE1950, DTMACG(PE1950.levels, min_active=2), pe1950_model)
    cdvfs = _run(PE1950, DTMCDVFS(PE1950.levels), pe1950_model)
    assert acg.runtime_s < bw.runtime_s
    assert cdvfs.runtime_s < bw.runtime_s


def test_acg_cuts_l2_misses(pe1950_model):
    bw = _run(PE1950, DTMBW(PE1950.levels), pe1950_model)
    acg = _run(PE1950, DTMACG(PE1950.levels, min_active=2), pe1950_model)
    assert acg.l2_misses < bw.l2_misses * 0.95


def test_cdvfs_saves_cpu_power(sr1500al_model):
    bw = _run(SR1500AL, DTMBW(SR1500AL.levels), sr1500al_model)
    cdvfs = _run(SR1500AL, DTMCDVFS(SR1500AL.levels), sr1500al_model)
    assert cdvfs.average_cpu_power_w < bw.average_cpu_power_w


def test_comb_competitive_with_acg(sr1500al_model):
    acg = _run(SR1500AL, DTMACG(SR1500AL.levels, min_active=2), sr1500al_model)
    comb = _run(SR1500AL, DTMCOMB(SR1500AL.levels, min_active=2), sr1500al_model)
    assert comb.runtime_s <= acg.runtime_s * 1.1


def test_instructions_invariant_across_policies(sr1500al_model):
    # The 1 s accounting interval truncates each job's final window, so
    # totals agree to within a couple of percent, not exactly.
    results = [
        _run(SR1500AL, policy, sr1500al_model)
        for policy in (NoLimitPolicy(cores=4), DTMBW(SR1500AL.levels))
    ]
    assert results[0].instructions == pytest.approx(results[1].instructions, rel=0.02)


def test_ambient_override(sr1500al_model):
    hot = _run(SR1500AL, DTMBW(SR1500AL.levels), sr1500al_model)
    cool = _run(
        SR1500AL, DTMBW(SR1500AL.levels), sr1500al_model, ambient_override_c=26.0
    )
    assert cool.mean_inlet_c < hot.mean_inlet_c
    assert cool.runtime_s <= hot.runtime_s


def test_base_frequency_level_slows_compute(pe1950_model):
    """Fig. 5.13: a 2.0 GHz base clock costs compute-sensitive mixes
    (W8) visibly, while memory-bound mixes barely move (§5.4.5)."""
    fast = _run(PE1950, DTMBW(PE1950.levels), pe1950_model, mix_name="W8")
    slow = _run(
        PE1950, DTMBW(PE1950.levels), pe1950_model,
        mix_name="W8", base_frequency_level=3,
    )
    assert slow.runtime_s > fast.runtime_s
    # Memory-bound W1: within a few percent either way.
    fast_w1 = _run(PE1950, DTMBW(PE1950.levels), pe1950_model)
    slow_w1 = _run(
        PE1950, DTMBW(PE1950.levels), pe1950_model, base_frequency_level=3
    )
    assert slow_w1.runtime_s == pytest.approx(fast_w1.runtime_s, rel=0.08)


def test_homogeneous_run_produces_trace(sr1500al_model):
    trace, card = run_homogeneous(
        SR1500AL, "swim", duration_s=60.0, window_model=sr1500al_model
    )
    assert len(trace) == 60
    assert len(card.log("amb")) == 60
    # Temperatures rise from the idle-stable start.
    assert trace.amb_c[-1] > trace.amb_c[0]


def test_homogeneous_idle_start_near_measured_81c(sr1500al_model):
    """Fig. 5.4 anchor: the SR1500AL idles near 81 degC AMB."""
    trace, _ = run_homogeneous(
        SR1500AL, "gzip", duration_s=1.0, window_model=sr1500al_model
    )
    assert trace.amb_c[0] == pytest.approx(81.0, abs=3.0)


def test_homogeneous_safety_throttle_pins_100c(sr1500al_model):
    """Fig. 5.4: memory-intensive programs fluctuate around 100 degC
    once the safety throttle arms."""
    trace, _ = run_homogeneous(
        SR1500AL, "swim", duration_s=400.0, window_model=sr1500al_model
    )
    assert max(trace.amb_c) <= 102.0
    assert max(trace.amb_c) >= 99.0


class _NeverStores(dict):
    """A window cache that forgets every entry: each window recomputes."""

    def __setitem__(self, key, value) -> None:
        pass


def _homogeneous_engine(platform):
    # SR1500AL/swim arms and disarms the safety throttle.
    strategy = HomogeneousStrategy(
        platform, get_app("swim"), 400.0, 100.0,
        ServerWindowModel(platform),
    )
    return SteppingEngine(strategy)


@pytest.mark.parametrize(
    "policy,platform",
    [
        (policy, platform)
        for policy in CHAPTER5_POLICIES
        for platform in ("PE1950", "SR1500AL")
    ] + [("homogeneous", "SR1500AL")],
)
def test_window_cache_matches_recomputing_every_window(policy, platform):
    """The engine's window cache replays exactly what a fresh
    computation of each window would apply, for every Chapter 5 policy
    and for the homogeneous warm-up."""
    if policy == "homogeneous":
        build = lambda: _homogeneous_engine(PLATFORMS[platform])  # noqa: E731
    else:
        spec = Chapter5Spec(platform=platform, mix="W1", policy=policy, copies=1)
        build = lambda: engine_for_spec(spec)  # noqa: E731
    cached = build()
    uncached = build()
    uncached._window_cache = _NeverStores()
    assert state_dict(cached.run_to_completion()) == state_dict(
        uncached.run_to_completion()
    )


def test_restore_drops_a_populated_window_cache():
    """A restore into an engine whose cache was filled at another
    window of the same epoch still finishes exactly like a straight
    run."""
    spec = Chapter5Spec(platform="PE1950", mix="W1", policy="comb", copies=1)
    straight = state_dict(engine_for_spec(spec).run_to_completion())
    source = engine_for_spec(spec)
    source.step_windows(170)
    state = json.loads(json.dumps(source.checkpoint().to_dict()))
    target = engine_for_spec(spec)
    target.step_windows(180)
    assert (
        target.scheduler.finished_jobs == source.scheduler.finished_jobs == 1
    )
    assert target._window_cache
    target.restore(EngineState.from_dict(state))
    assert not target._window_cache
    assert state_dict(target.run_to_completion()) == straight


def test_server_model_memo_is_order_independent(monkeypatch):
    """A ch5 result must not depend on what the process ran before:
    two time slices that round alike get their own model evaluations."""
    monkeypatch.setattr(specs_module, "_server_models", {})
    first = Chapter5Spec(policy="acg", mix="W1", copies=1, time_slice_s=0.0100004)
    second = replace(first, time_slice_s=0.0100001)
    run(first, store=NullStore())
    after_first = state_dict(run(second, store=NullStore()))
    specs_module._server_models.clear()
    fresh = state_dict(run(second, store=NullStore()))
    assert after_first == fresh


_INVALID_CH5_FIELDS = [
    {"policy": "no-limit", "time_slice_s": -1.0},
    {"policy": "no-limit", "time_slice_s": 0.0},
    {"policy": "acg", "time_slice_s": 0.0},
    {"policy": "acg", "time_slice_s": float("inf")},
    {"policy": "bw", "base_frequency_level": 4},
    {"policy": "bw", "base_frequency_level": -1},
]


@pytest.mark.parametrize(
    "fields",
    _INVALID_CH5_FIELDS,
    ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()),
)
def test_invalid_ch5_inputs_rejected_before_running(fields):
    """Bad time slices and base levels fail when the spec is built,
    naming the field, so no cell with them can run or be stored."""
    name = next(key for key in fields if key != "policy")
    with pytest.raises(ConfigurationError, match=name):
        Chapter5Spec(mix="W1", copies=1, **fields)
