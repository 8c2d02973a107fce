"""Emergency-level tables (Tables 4.3 and 5.1)."""

import pytest

from repro.errors import ConfigurationError
from repro.params.emergency import (
    EmergencyLevels,
    PE1950_LEVELS,
    SIMULATION_LEVELS,
    SR1500AL_LEVELS,
)
from repro.units import gbps


def test_simulation_has_five_levels():
    assert SIMULATION_LEVELS.level_count == 5


def test_simulation_amb_boundaries():
    t = SIMULATION_LEVELS
    assert t.amb_level(100.0) == 0
    assert t.amb_level(108.0) == 1
    assert t.amb_level(108.9) == 1
    assert t.amb_level(109.0) == 2
    assert t.amb_level(109.5) == 3
    assert t.amb_level(110.0) == 4


def test_simulation_dram_boundaries():
    t = SIMULATION_LEVELS
    assert t.dram_level(80.0) == 0
    assert t.dram_level(83.0) == 1
    assert t.dram_level(84.2) == 2
    assert t.dram_level(84.7) == 3
    assert t.dram_level(85.0) == 4


def test_overall_level_is_worse_of_the_two():
    t = SIMULATION_LEVELS
    assert t.level(100.0, 84.7) == 3
    assert t.level(109.6, 80.0) == 3
    assert t.level(110.0, 85.0) == 4


def test_bw_ladder_matches_table_4_3():
    caps = SIMULATION_LEVELS.bw_caps_bytes_per_s
    assert caps[0] is None
    assert caps[1] == pytest.approx(gbps(19.2))
    assert caps[2] == pytest.approx(gbps(12.8))
    assert caps[3] == pytest.approx(gbps(6.4))
    assert caps[4] == 0.0


def test_acg_ladder_matches_table_4_3():
    assert SIMULATION_LEVELS.acg_active_cores == (4, 3, 2, 1, 0)


def test_cdvfs_ladder_matches_table_4_3():
    assert SIMULATION_LEVELS.cdvfs_levels == (0, 1, 2, 3, 4)


def test_pe1950_table_5_1():
    t = PE1950_LEVELS
    assert t.level_count == 4
    assert t.amb_tdp_c == 90.0
    assert t.amb_level(75.0) == 0
    assert t.amb_level(76.0) == 1
    assert t.amb_level(80.0) == 2
    assert t.amb_level(84.0) == 3
    assert t.bw_caps_bytes_per_s[1] == pytest.approx(gbps(4.0))
    assert t.acg_active_cores == (4, 3, 2, 2)


def test_sr1500al_table_5_1():
    t = SR1500AL_LEVELS
    assert t.amb_tdp_c == 100.0
    assert t.amb_level(86.0) == 1
    assert t.amb_level(94.0) == 3
    assert t.bw_caps_bytes_per_s == (None, gbps(5.0), gbps(4.0), gbps(3.0))


def test_servers_ignore_dram_temperature():
    assert PE1950_LEVELS.dram_level(200.0) == 0


def test_with_amb_tdp_shifts_all_thresholds():
    shifted = PE1950_LEVELS.with_amb_tdp(88.0)
    assert shifted.amb_tdp_c == 88.0
    assert shifted.amb_thresholds_c == (74.0, 78.0, 82.0)
    assert shifted.amb_trp_c == pytest.approx(82.0)
    # Original untouched.
    assert PE1950_LEVELS.amb_thresholds_c == (76.0, 80.0, 84.0)


def test_ladder_length_validation():
    with pytest.raises(ConfigurationError):
        EmergencyLevels(
            amb_thresholds_c=(100.0,),
            dram_thresholds_c=(),
            bw_caps_bytes_per_s=(None,),  # needs 2 entries
            acg_active_cores=(4, 2),
            cdvfs_levels=(0, 1),
        )


def test_thresholds_must_ascend():
    with pytest.raises(ConfigurationError):
        EmergencyLevels(
            amb_thresholds_c=(109.0, 108.0),
            dram_thresholds_c=(),
            bw_caps_bytes_per_s=(None, None, None),
            acg_active_cores=(4, 3, 2),
            cdvfs_levels=(0, 1, 2),
        )


def test_trp_below_tdp_required():
    with pytest.raises(ConfigurationError):
        EmergencyLevels(
            amb_thresholds_c=(108.0,),
            dram_thresholds_c=(),
            bw_caps_bytes_per_s=(None, 0.0),
            acg_active_cores=(4, 0),
            cdvfs_levels=(0, 4),
            amb_tdp_c=110.0,
            amb_trp_c=111.0,
        )


def _levels(**overrides) -> EmergencyLevels:
    fields = dict(
        amb_thresholds_c=(108.0,),
        dram_thresholds_c=(83.0,),
        bw_caps_bytes_per_s=(None, 0.0),
        acg_active_cores=(4, 0),
        cdvfs_levels=(0, 4),
    )
    fields.update(overrides)
    return EmergencyLevels(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        {"amb_tdp_c": float("nan")},
        {"amb_trp_c": float("nan")},
        {"dram_tdp_c": float("nan")},
        {"dram_trp_c": float("nan")},
        {"amb_tdp_c": float("inf")},
        {"dram_trp_c": float("-inf")},
        {"amb_thresholds_c": (float("nan"),)},
        {"dram_thresholds_c": (float("inf"),)},
        {"dram_tdp_c": 85.0, "dram_trp_c": 85.0},
        {"dram_tdp_c": 80.0, "dram_trp_c": 84.0},
    ],
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_non_finite_or_inverted_points_are_refused(overrides):
    """A NaN or infinite threshold, TDP or TRP is refused, and the TRP
    must sit below the TDP for the DRAM pair as well as the AMB pair."""
    with pytest.raises(ConfigurationError):
        _levels(**overrides)


def test_nan_tdp_cell_is_refused_before_any_window_runs():
    """A Chapter 5 cell with a NaN AMB TDP is refused when its spec is
    built, naming the field, instead of running with every level
    threshold at NaN."""
    from repro.analysis.specs import Chapter5Spec

    with pytest.raises(ConfigurationError, match="amb_tdp_c must be finite"):
        Chapter5Spec(policy="bw", copies=1, amb_tdp_c=float("nan"))
