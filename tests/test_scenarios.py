"""The scenario engine: registry, validation, lowering, execution."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.campaigns import run_campaign
from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.campaign import NullStore
from repro.errors import ConfigurationError
from repro.scenarios import (
    SCENARIO_LIBRARY,
    Scenario,
    get_scenario,
    grid_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
)


def test_library_registers_at_least_ten_scenarios():
    assert len(SCENARIO_LIBRARY) >= 10
    assert set(s.name for s in SCENARIO_LIBRARY) <= set(scenario_names())


def test_every_library_scenario_lowers_to_a_unique_spec():
    keys = set()
    for scenario in SCENARIO_LIBRARY:
        spec = scenario.spec(copies=1)
        assert spec.kind == scenario.kind
        assert spec.scenario == scenario.name
        assert isinstance(
            spec, Chapter4Spec if scenario.kind == "ch4" else Chapter5Spec
        )
        keys.add(spec.key())
    assert len(keys) == len(SCENARIO_LIBRARY)


def test_library_covers_both_kinds_and_all_axes():
    kinds = {s.kind for s in SCENARIO_LIBRARY}
    assert kinds == {"ch4", "ch5"}
    # Each composition axis is exercised by at least one scenario.
    assert any(s.inlet_delta_c != 0.0 for s in SCENARIO_LIBRARY)
    assert any(s.duty_cycle < 1.0 for s in SCENARIO_LIBRARY)
    assert any(s.bandwidth_scale != 1.0 for s in SCENARIO_LIBRARY)
    assert any(s.channels != 4 or s.dimms_per_channel != 4 for s in SCENARIO_LIBRARY)
    assert any(s.amb_trp_c is not None for s in SCENARIO_LIBRARY)


def test_get_unknown_scenario_is_a_clean_error():
    with pytest.raises(ConfigurationError, match="unknown scenario 'warp'"):
        get_scenario("warp")


def test_register_duplicate_rejected():
    existing = SCENARIO_LIBRARY[0]
    with pytest.raises(ConfigurationError, match="already registered"):
        register_scenario(existing)
    # replace_existing allows idempotent re-registration (module reloads).
    register_scenario(existing, replace_existing=True)


def test_scenario_validation():
    with pytest.raises(ConfigurationError, match="kind"):
        Scenario(name="x", description="d", kind="ch6")
    with pytest.raises(ConfigurationError, match="policy"):
        Scenario(name="x", description="d", kind="ch5", policy="ts")
    with pytest.raises(ConfigurationError, match="duty_cycle must be > 0"):
        Scenario(name="x", description="d", duty_cycle=0.0)
    with pytest.raises(ConfigurationError, match="cooling"):
        Scenario(name="x", description="d", cooling="NOHS_9.9")
    with pytest.raises(ConfigurationError, match="non-empty name"):
        Scenario(name="", description="d")


def test_kind_mismatched_knobs_rejected():
    # A ch5 scenario must not carry ch4-only knobs, and vice versa.
    with pytest.raises(ConfigurationError, match="does not apply"):
        Scenario(name="x", description="d", kind="ch5", policy="bw",
                 inlet_delta_c=5.0)
    with pytest.raises(ConfigurationError, match="does not apply"):
        Scenario(name="x", description="d", kind="ch4",
                 ambient_override_c=45.0)


def test_spec_overrides_mix_and_policy():
    scenario = get_scenario("hot-ambient")
    spec = scenario.spec(copies=3, mix="W5", policy="acg")
    assert (spec.mix, spec.policy, spec.copies) == ("W5", "acg", 3)
    assert spec.inlet_delta_c == scenario.inlet_delta_c


def test_with_overrides_revalidates():
    scenario = get_scenario("idle-burst")
    assert scenario.with_overrides(duty_cycle=0.5).duty_cycle == 0.5
    with pytest.raises(ConfigurationError):
        scenario.with_overrides(duty_cycle=2.0)


def test_iter_scenarios_filters():
    ch5 = list(iter_scenarios(kind="ch5"))
    assert ch5 and all(s.kind == "ch5" for s in ch5)
    stress = list(iter_scenarios(tag="stress"))
    assert stress and all("stress" in s.tags for s in stress)
    assert not list(iter_scenarios(kind="ch4", tag="server"))


def test_grid_scenario_is_canonical():
    a = grid_scenario("ch4", "W1", "ts")
    b = grid_scenario("ch4", "W1", "ts")
    assert a == b
    assert a.spec(copies=1).key() == b.spec(copies=1).key()
    assert grid_scenario("ch5", "W1", "bw").kind == "ch5"
    with pytest.raises(ConfigurationError, match="kind"):
        grid_scenario("ch6", "W1", "ts")


def test_scenario_label_does_not_affect_cache_key():
    """The label is presentation metadata: same physical run, same key."""
    plain = Chapter4Spec(mix="W1", policy="ts", copies=1)
    labeled = Chapter4Spec(mix="W1", policy="ts", copies=1,
                           scenario="ch4:AOHS_1.5:W1:ts")
    assert plain.key() == labeled.key()
    assert (Chapter5Spec(mix="W1", policy="bw", copies=1).key()
            == Chapter5Spec(mix="W1", policy="bw", copies=1,
                            scenario="x").key())


def test_sub_window_duty_cycle_fails_fast():
    """A burst shorter than one DTM window is a config error, not a hang."""
    from repro.core.simulator import SimulationConfig, duty_windows

    with pytest.raises(ConfigurationError, match="at least one DTM interval"):
        SimulationConfig(duty_cycle=0.04, duty_period_s=0.1)
    with pytest.raises(ConfigurationError, match="at least one DTM interval"):
        SimulationConfig(duty_cycle=0.5, duty_period_s=0.01)
    # The library's burst scenario quantizes exactly: 10 of 40 windows on.
    config = SimulationConfig(duty_cycle=0.25, duty_period_s=0.4)
    assert duty_windows(
        config.duty_cycle, config.duty_period_s, config.dtm_interval_s
    ) == (10, 40)
    with pytest.raises(ConfigurationError, match="at least one DTM interval"):
        Chapter4Spec(duty_cycle=0.04, duty_period_s=0.1)


def test_run_scenario_executes():
    result = run_scenario("cold-aisle", copies=1)
    assert result.runtime_s > 0
    assert result.workload == "W1"


def test_idle_burst_traffic_shape_stretches_the_batch():
    """A 25% duty cycle must stretch the batch well beyond continuous."""
    burst = run_scenario("idle-burst", copies=1)
    continuous = run_scenario("cold-aisle", copies=1)  # same mix, no-limit
    assert burst.runtime_s > 2.0 * continuous.runtime_s


def test_scenarios_campaign_grid_runs_and_orders():
    headers, rows = run_campaign(
        "scenarios",
        mixes=[],
        policies=[],
        variants=["cold-aisle", "server-hot-inlet"],
        copies=1,
        store=NullStore(),
    )
    assert headers[0] == "scenario"
    assert [row[0] for row in rows] == ["cold-aisle", "server-hot-inlet"]
    assert rows[0][1] == "ch4" and rows[1][1] == "ch5"


def test_scenarios_campaign_grid_crosses_mix_overrides():
    headers, rows = run_campaign(
        "scenarios",
        mixes=["W1", "W2"],
        policies=[],
        variants=["cold-aisle"],
        copies=1,
    )
    assert [(row[0], row[2]) for row in rows] == [
        ("cold-aisle", "W1"), ("cold-aisle", "W2"),
    ]


def test_the_scenario_module_imports_first_in_a_fresh_interpreter():
    """``repro.scenarios.scenario`` builds on the run specs, so
    ``repro.analysis`` must not import the scenarios back (its package
    once did, through ``repro.analysis.campaigns``)."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.scenarios.scenario import SCENARIO_KINDS"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
