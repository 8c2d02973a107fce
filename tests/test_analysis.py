"""Analysis helpers and the experiment harness."""

import pytest

from repro.analysis.specs import (
    Chapter4Spec,
    Chapter5Spec,
    bench_copies,
    make_chapter4_policy,
    make_chapter5_policy,
)
from repro.analysis.normalize import (
    arithmetic_mean,
    geometric_mean,
    normalize_map,
)
from repro.analysis.series import downsample, summarize_series
from repro.analysis.tables import (
    SPARKLINE_WIDTH,
    format_series,
    format_table,
    sparkline,
)
from repro.errors import ConfigurationError
from repro.testbed.platforms import PE1950


def test_normalize_map():
    values = {"a": 2.0, "b": 4.0}
    normalized = normalize_map(values, "a")
    assert normalized == {"a": 1.0, "b": 2.0}


def test_normalize_map_missing_baseline():
    with pytest.raises(ConfigurationError):
        normalize_map({"a": 1.0}, "z")


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        geometric_mean([])
    with pytest.raises(ConfigurationError):
        geometric_mean([1.0, -1.0])


def test_arithmetic_mean():
    assert arithmetic_mean([1.0, 3.0]) == 2.0


def test_format_table_alignment():
    text = format_table(["name", "value"], [["w1", 1.5], ["longer", 2.25]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.500" in lines[2]
    assert "2.250" in lines[3]


def test_format_table_row_width_check():
    with pytest.raises(ConfigurationError):
        format_table(["a"], [[1, 2]])


def test_sparkline_range():
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] != line[-1]


def test_sparkline_flat_series():
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"


def test_sparkline_downsamples():
    assert len(sparkline(list(range(1000)))) == SPARKLINE_WIDTH


def test_format_series():
    text = format_series("amb", [100.0, 110.0])
    assert "100.00" in text and "110.00" in text


def test_downsample():
    assert downsample([1.0, 2.0, 3.0, 4.0], 2) == [1.0, 3.0]
    assert downsample([1.0], 5) == [1.0]


def test_summarize_series():
    summary = summarize_series([1.0, 2.0, 3.0, 4.0], threshold=3.0)
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.mean == 2.5
    assert summary.overshoot_fraction == 0.5


def test_bench_copies_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "3")
    assert bench_copies() == 3
    monkeypatch.setenv("REPRO_BENCH_SCALE", "zero")
    with pytest.raises(ConfigurationError):
        bench_copies()


def test_spec_keys_are_stable_and_distinct():
    a = Chapter4Spec(mix="W1", policy="acg")
    b = Chapter4Spec(mix="W1", policy="acg")
    c = Chapter4Spec(mix="W1", policy="bw")
    assert a.key() == b.key()
    assert a.key() != c.key()
    d = Chapter5Spec(platform="PE1950", mix="W1")
    e = Chapter5Spec(platform="SR1500AL", mix="W1")
    assert d.key() != e.key()


def test_policy_factories():
    for name in ("no-limit", "ts", "bw", "acg", "cdvfs", "acg+pid"):
        policy = make_chapter4_policy(name)
        assert policy is not None
    with pytest.raises(ConfigurationError):
        make_chapter4_policy("warp")
    for name in ("no-limit", "bw", "acg", "cdvfs", "comb"):
        assert make_chapter5_policy(name, PE1950) is not None
    with pytest.raises(ConfigurationError):
        make_chapter5_policy("warp", PE1950)


def test_invalid_ch4_spec_is_refused_at_construction():
    """A value the model cannot run is refused when the spec is built,
    naming the field, so no cell with it can run or be stored."""
    with pytest.raises(ConfigurationError, match="bandwidth_scale must be > 0"):
        Chapter4Spec(copies=1, bandwidth_scale=-2.0)
