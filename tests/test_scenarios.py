"""The scenario library: named run specs, their lookup, crossing and runs."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.api import CampaignRequest, ReproClient, ServerRequest, SimulateRequest
from repro.campaign import NullStore, run
from repro.errors import ConfigurationError
from repro.scenarios import (
    SCENARIO_LIBRARY,
    SCENARIO_NAMES,
    get_scenario,
    iter_scenarios,
)


def _run(name: str):
    """Run (or recall) one library scenario at ``copies=1``."""
    return run(replace(get_scenario(name).spec, copies=1))


def test_library_names_at_least_ten_scenarios_once_each():
    names = [entry.spec.scenario for entry in SCENARIO_LIBRARY]
    assert len(names) >= 10
    assert SCENARIO_NAMES == tuple(sorted(set(names)))
    assert len(SCENARIO_NAMES) == len(names)


def test_every_library_scenario_is_a_unique_spec():
    keys = set()
    for entry in SCENARIO_LIBRARY:
        assert get_scenario(entry.spec.scenario) is entry
        assert isinstance(
            entry.spec, Chapter4Spec if entry.spec.kind == "ch4" else Chapter5Spec
        )
        keys.add(replace(entry.spec, copies=1).key())
    assert len(keys) == len(SCENARIO_LIBRARY)


def test_library_covers_both_kinds_and_all_axes():
    assert {entry.spec.kind for entry in SCENARIO_LIBRARY} == {"ch4", "ch5"}
    ch4 = [entry.spec for entry in SCENARIO_LIBRARY if entry.spec.kind == "ch4"]
    # Each composition axis is exercised by at least one scenario.
    assert any(spec.inlet_delta_c != 0.0 for spec in ch4)
    assert any(spec.duty_cycle < 1.0 for spec in ch4)
    assert any(spec.bandwidth_scale != 1.0 for spec in ch4)
    assert any(spec.channels != 4 or spec.dimms_per_channel != 4 for spec in ch4)
    assert any(spec.amb_trp_c is not None for spec in ch4)


def test_get_unknown_scenario_is_a_clean_error():
    with pytest.raises(ConfigurationError, match="unknown scenario 'warp'"):
        get_scenario("warp")


def test_crossing_an_entry_rechecks_its_spec():
    spec = get_scenario("idle-burst").spec
    assert replace(spec, duty_cycle=0.5).duty_cycle == 0.5
    with pytest.raises(ConfigurationError, match="duty_cycle must be"):
        replace(spec, duty_cycle=2.0)


def test_a_server_scenario_crossed_with_a_ch4_policy_is_refused():
    request = CampaignRequest(
        grid="scenarios", variants=("server-hot-inlet",), policies=("ts",)
    )
    with pytest.raises(ConfigurationError, match="unknown ch5 policy 'ts'"):
        request.cells()


def test_the_scenarios_grid_crosses_mix_policy_and_copies():
    ((spec, echo),) = CampaignRequest(
        grid="scenarios", variants=("hot-ambient",), mixes=("W5",),
        policies=("acg",), copies=3,
    ).cells()
    assert (spec.mix, spec.policy, spec.copies) == ("W5", "acg", 3)
    assert spec.inlet_delta_c == get_scenario("hot-ambient").spec.inlet_delta_c
    assert (echo["type"], echo["scenario"]) == ("cell", "hot-ambient")


def test_iter_scenarios_filters():
    ch5 = list(iter_scenarios(kind="ch5"))
    assert ch5 and all(entry.spec.kind == "ch5" for entry in ch5)
    stress = list(iter_scenarios(tag="stress"))
    assert stress and all("stress" in entry.tags for entry in stress)
    assert not list(iter_scenarios(kind="ch4", tag="server"))


def test_a_single_cell_request_and_its_grid_cell_are_one_spec():
    """An ad-hoc cell is labelled by its axes, so a CLI run and the same
    campaign grid cell name one run."""
    (ch4,) = CampaignRequest(
        grid="ch4", mixes=("W1",), policies=("ts",), copies=1
    ).cells()
    assert SimulateRequest(mix="W1", policy="ts", copies=1).cells()[0][0] == ch4[0]
    assert ch4[0].scenario == "ch4:AOHS_1.5:W1:ts"
    (ch5,) = CampaignRequest(
        grid="ch5", mixes=("W1",), policies=("bw",), copies=1
    ).cells()
    assert ServerRequest(mix="W1", policy="bw", copies=1).cells()[0][0] == ch5[0]
    assert ch5[0].scenario == "ch5:PE1950:W1:bw"


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


def test_a_library_scenario_runs():
    result = _run("cold-aisle")
    assert result.runtime_s > 0
    assert result.workload == "W1"


def test_idle_burst_traffic_shape_stretches_the_batch():
    """A 25% duty cycle must stretch the batch well beyond continuous."""
    burst = _run("idle-burst")
    continuous = _run("cold-aisle")  # same mix, no-limit
    assert burst.runtime_s > 2.0 * continuous.runtime_s


def test_scenarios_campaign_grid_runs_and_orders():
    headers, rows = ReproClient(NullStore()).campaign_table(CampaignRequest(
        grid="scenarios", mixes=(), policies=(),
        variants=("cold-aisle", "server-hot-inlet"), copies=1,
    ))
    assert headers[0] == "scenario"
    assert [row[0] for row in rows] == ["cold-aisle", "server-hot-inlet"]
    assert rows[0][1] == "ch4" and rows[1][1] == "ch5"


def test_scenarios_campaign_grid_crosses_mix_overrides():
    headers, rows = ReproClient().campaign_table(CampaignRequest(
        grid="scenarios", mixes=("W1", "W2"), policies=(),
        variants=("cold-aisle",), copies=1,
    ))
    assert [(row[0], row[2]) for row in rows] == [
        ("cold-aisle", "W1"), ("cold-aisle", "W2"),
    ]


def test_the_scenario_module_imports_first_in_a_fresh_interpreter():
    """``repro.scenarios.library`` builds on the run specs, so
    ``repro.analysis`` must not import the scenarios back (its package
    once did, through ``repro.analysis.campaigns``)."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.scenarios.library import get_scenario"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
