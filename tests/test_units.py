"""Unit-conversion helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_gbps_roundtrip():
    assert units.to_gbps(units.gbps(6.4)) == pytest.approx(6.4)


def test_gbps_value():
    assert units.gbps(1.0) == 1_000_000_000


def test_ns_roundtrip():
    assert units.ns_to_s(15.0) / units.NS == pytest.approx(15.0)


def test_cache_line_constant():
    assert units.CACHE_LINE_BYTES == 64


def test_binary_prefixes():
    assert units.MIB == 1024 * units.KIB
    assert units.GIB == 1024 * units.MIB


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_gbps_monotone(value):
    assert units.gbps(value) >= 0
    assert math.isclose(units.to_gbps(units.gbps(value)), value, rel_tol=1e-12, abs_tol=1e-12)
