"""Time-series helpers for the temperature-trace figures."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


def downsample(values: list[float], target_points: int) -> list[float]:
    """Pick ~``target_points`` evenly spaced samples."""
    if target_points < 1:
        raise ConfigurationError("need at least one point")
    if len(values) <= target_points:
        return list(values)
    stride = len(values) / target_points
    return [values[int(i * stride)] for i in range(target_points)]


@dataclass(frozen=True)
class SeriesSummary:
    """Summary statistics of one temperature series."""

    minimum: float
    maximum: float
    mean: float
    #: Fraction of samples at or above the threshold (overshoot metric).
    overshoot_fraction: float


def summarize_series(values: list[float], threshold: float) -> SeriesSummary:
    """Min / max / mean / threshold-overshoot of a series."""
    if not values:
        raise ConfigurationError("cannot summarize an empty series")
    over = sum(1 for v in values if v >= threshold)
    return SeriesSummary(
        minimum=min(values),
        maximum=max(values),
        mean=sum(values) / len(values),
        overshoot_fraction=over / len(values),
    )
