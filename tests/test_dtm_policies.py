"""Table-driven DTM policies: TS, BW, ACG, CDVFS, COMB."""

import pytest

from repro.analysis.specs import make_chapter4_policy, make_chapter5_policy
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMCOMB, DTMTS, PIDPolicy
from repro.dtm.base import ControlDecision, NoLimitPolicy, ThermalReading
from repro.dtm.ladder import ladder_decision
from repro.dtm.levels import LevelTracker
from repro.dtm.pid import AMB_GAINS
from repro.errors import ConfigurationError
from repro.params.emergency import PE1950_LEVELS, SIMULATION_LEVELS
from repro.testbed.platforms import PLATFORMS
from repro.units import gbps

COOL = ThermalReading(amb_c=100.0, dram_c=70.0)
WARM = ThermalReading(amb_c=108.5, dram_c=80.0)
HOT = ThermalReading(amb_c=110.0, dram_c=80.0)
RELEASED = ThermalReading(amb_c=108.9, dram_c=80.0)
FULLY_COOL = ThermalReading(amb_c=109.0, dram_c=80.0)


def test_no_limit_never_throttles():
    policy = NoLimitPolicy()
    decision = policy.decide(ThermalReading(200.0, 200.0), 0.01)
    assert decision.memory_on
    assert decision.bandwidth_cap_bytes_per_s is None
    assert decision.active_cores == 4


def test_ts_stays_on_below_tdp():
    policy = DTMTS()
    assert policy.decide(WARM, 0.01).memory_on


def test_ts_shuts_down_at_tdp():
    policy = DTMTS()
    assert not policy.decide(HOT, 0.01).memory_on


def test_ts_hysteresis_until_trp():
    policy = DTMTS()
    policy.decide(HOT, 0.01)
    # 109.5 is between TRP (109.0) and TDP: still off.
    assert not policy.decide(ThermalReading(109.5, 80.0), 0.01).memory_on
    # At/below TRP: back on.
    assert policy.decide(FULLY_COOL, 0.01).memory_on


def test_ts_dram_limit_also_triggers():
    policy = DTMTS()
    assert not policy.decide(ThermalReading(100.0, 85.0), 0.01).memory_on


def test_ts_custom_trp():
    policy = DTMTS(amb_trp_c=105.0)
    policy.decide(HOT, 0.01)
    assert not policy.decide(ThermalReading(106.0, 80.0), 0.01).memory_on
    assert policy.decide(ThermalReading(105.0, 80.0), 0.01).memory_on


def test_ts_rejects_trp_at_tdp():
    with pytest.raises(ConfigurationError):
        DTMTS(amb_trp_c=110.0)


@pytest.mark.parametrize("trp", ["amb_trp_c", "dram_trp_c"])
def test_ts_rejects_a_nan_release_point(trp):
    """A NaN release point would never release the memory."""
    with pytest.raises(ConfigurationError, match="TRP must be below"):
        DTMTS(**{trp: float("nan")})


def test_bw_ladder_follows_levels():
    policy = DTMBW()
    assert policy.decide(COOL, 0.01).bandwidth_cap_bytes_per_s is None
    assert policy.decide(WARM, 0.01).bandwidth_cap_bytes_per_s == pytest.approx(gbps(19.2))
    assert policy.decide(
        ThermalReading(109.2, 80.0), 0.01
    ).bandwidth_cap_bytes_per_s == pytest.approx(gbps(12.8))
    assert policy.decide(
        ThermalReading(109.7, 80.0), 0.01
    ).bandwidth_cap_bytes_per_s == pytest.approx(gbps(6.4))


def test_bw_top_level_shuts_down_with_latch():
    policy = DTMBW()
    decision = policy.decide(HOT, 0.01)
    assert not decision.memory_on
    # Still latched until the TRP.
    assert not policy.decide(ThermalReading(109.4, 80.0), 0.01).memory_on
    assert policy.decide(FULLY_COOL, 0.01).memory_on


def test_bw_never_gates_cores():
    policy = DTMBW()
    for reading in (COOL, WARM, HOT):
        assert policy.decide(reading, 0.01).active_cores == 4


def test_acg_ladder_follows_levels():
    policy = DTMACG()
    assert policy.decide(COOL, 0.01).active_cores == 4
    assert policy.decide(WARM, 0.01).active_cores == 3
    assert policy.decide(ThermalReading(109.2, 80.0), 0.01).active_cores == 2
    assert policy.decide(ThermalReading(109.7, 80.0), 0.01).active_cores == 1


def test_acg_full_shutdown_at_top():
    policy = DTMACG()
    decision = policy.decide(HOT, 0.01)
    assert decision.active_cores == 0
    assert not decision.memory_on


def test_acg_min_active_for_servers():
    policy = DTMACG(PE1950_LEVELS, min_active=2)
    # PE1950 ladder bottoms out at 2 cores anyway; check the clamp.
    decision = policy.decide(ThermalReading(85.0, 0.0), 1.0)
    assert decision.active_cores == 2


def test_cdvfs_ladder_follows_levels():
    policy = DTMCDVFS()
    assert policy.decide(COOL, 0.01).dvfs_level == 0
    assert policy.decide(WARM, 0.01).dvfs_level == 1
    assert policy.decide(ThermalReading(109.2, 80.0), 0.01).dvfs_level == 2
    assert policy.decide(ThermalReading(109.7, 80.0), 0.01).dvfs_level == 3


def test_cdvfs_stops_at_top_level():
    policy = DTMCDVFS()
    decision = policy.decide(HOT, 0.01)
    assert decision.dvfs_level == 4
    assert not decision.memory_on
    assert decision.active_cores == 0


def test_cdvfs_keeps_all_cores_otherwise():
    policy = DTMCDVFS()
    assert policy.decide(WARM, 0.01).active_cores == 4


def test_comb_walks_both_ladders():
    policy = DTMCOMB(PE1950_LEVELS, min_active=2)
    cool = policy.decide(ThermalReading(70.0, 0.0), 1.0)
    assert (cool.active_cores, cool.dvfs_level) == (4, 0)
    warm = policy.decide(ThermalReading(77.0, 0.0), 1.0)
    assert (warm.active_cores, warm.dvfs_level) == (3, 1)
    hot = policy.decide(ThermalReading(85.0, 0.0), 1.0)
    assert (hot.active_cores, hot.dvfs_level) == (2, 3)


def test_level_tracker_latch_behaviour():
    tracker = LevelTracker(SIMULATION_LEVELS)
    assert tracker.level(ThermalReading(110.5, 80.0)) == 4
    assert tracker.latched
    # Between TRP and TDP: still the top level.
    assert tracker.level(ThermalReading(109.3, 80.0)) == 4
    # At the TRP: releases and re-evaluates.
    assert tracker.level(ThermalReading(108.5, 80.0)) == 1
    assert not tracker.latched


def test_policies_report_emergency_level():
    policy = DTMBW()
    assert policy.decide(WARM, 0.01).emergency_level == 1
    assert policy.decide(HOT, 0.01).emergency_level == 4


def test_reset_restores_initial_state():
    for policy in (DTMTS(), DTMBW(), DTMACG(), DTMCDVFS(), DTMCOMB()):
        policy.decide(ThermalReading(150.0, 150.0), 0.01)
        policy.reset()
        decision = policy.decide(COOL if policy.name != "DTM-COMB" else ThermalReading(70.0, 0.0), 0.01)
        assert decision.memory_on


def test_decision_validation():
    with pytest.raises(ConfigurationError):
        ControlDecision(bandwidth_cap_bytes_per_s=-1.0)
    with pytest.raises(ConfigurationError):
        ControlDecision(active_cores=-1)


def _reading_at_rung(levels, rung):
    """A reading whose emergency level is ``rung`` (DRAM kept cool)."""
    amb = levels.amb_thresholds_c
    dram = levels.dram_thresholds_c
    return ThermalReading(
        amb_c=amb[rung - 1] if rung else amb[0] - 10.0,
        dram_c=dram[0] - 10.0 if dram else 0.0,
    )


def _pid_at_rung(scheme, rung, monkeypatch):
    """The PID policy's first decision when its output selects ``rung``.

    At 50 degC both integrals stay off and the first step has no
    derivative, so the AMB output is ``Kc * (target - 50)``; the target
    is placed so that output lands on the rung, and the DRAM controller
    saturates at full performance.
    """
    top = SIMULATION_LEVELS.level_count - 1
    output = 5.0 - 10.0 * rung / top
    monkeypatch.setattr(
        "repro.dtm.pid_policies.AMB_TARGET_C", 50.0 + output / AMB_GAINS.kc
    )
    monkeypatch.setattr("repro.dtm.pid_policies.DRAM_TARGET_C", 200.0)
    return PIDPolicy(scheme).decide(ThermalReading(50.0, 40.0), 0.01)


@pytest.mark.parametrize("scheme", ["bw", "acg", "cdvfs", "comb"])
def test_table_and_pid_policies_share_every_rung(scheme, monkeypatch):
    """A PID variant picks a rung of the table-driven scheme's ladder:
    on every rung of the Table 4.3 levels, with the cores and
    ``min_active`` the Chapter 4 factory passes, both return one
    decision."""
    levels = SIMULATION_LEVELS
    for rung in range(levels.level_count):
        table_decision = make_chapter4_policy(scheme).decide(
            _reading_at_rung(levels, rung), 0.01
        )
        pid_decision = _pid_at_rung(scheme, rung, monkeypatch)
        assert table_decision.emergency_level == rung
        assert pid_decision == table_decision, (rung, pid_decision, table_decision)


@pytest.mark.parametrize("table", ["PE1950", "SR1500AL"])
@pytest.mark.parametrize("scheme", ["bw", "acg", "cdvfs", "comb"])
def test_chapter5_policies_take_the_ladder_rung_on_every_rung(table, scheme):
    """On every rung of a server's emergency table, the Chapter 5
    factory's policy returns that rung of the scheme's ladder, on the
    server's levels and cores, with one core per socket as the acg and
    comb floor."""
    platform = PLATFORMS[table]
    levels = platform.levels
    min_active = platform.sockets if scheme in ("acg", "comb") else 0
    for rung in range(levels.level_count):
        decision = make_chapter5_policy(scheme, platform).decide(
            _reading_at_rung(levels, rung), 0.01
        )
        assert decision.emergency_level == rung
        assert decision == ladder_decision(
            scheme, levels, rung, platform.total_cores, min_active
        ), (rung, decision)
