"""Normalization helpers for the figure benches."""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def normalize_map(values: dict[str, float], baseline_key: str) -> dict[str, float]:
    """Divide every value by the baseline entry's value."""
    if baseline_key not in values:
        raise ConfigurationError(f"baseline {baseline_key!r} missing from values")
    base = values[baseline_key]
    if base == 0:
        raise ConfigurationError("baseline value must be non-zero")
    return {key: value / base for key, value in values.items()}


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the right average for normalized ratios)."""
    if not values:
        raise ConfigurationError("geometric mean of empty list")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: list[float]) -> float:
    """Plain average."""
    if not values:
        raise ConfigurationError("mean of empty list")
    return sum(values) / len(values)
