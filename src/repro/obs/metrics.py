"""A dependency-free metrics registry with bounded label cardinality.

Counters, gauges, and fixed-bucket histograms, rendered two ways from
one source of truth: Prometheus-style text exposition (the default
``GET /metrics`` body) and a JSON document (``?format=json``) for
consumers without a scraper.

Label cardinality is bounded *per metric*: once a metric has
:data:`DEFAULT_MAX_SERIES` distinct label sets, further label
combinations collapse into a single ``"_other"`` series instead of
allocating new ones.  An unbounded tenant-id stream therefore costs
O(1) memory and keeps the scrape payload flat — the standing advice from every production
monitoring postmortem, enforced in the registry rather than left to
caller discipline.

This module is the process-wide home of the registry: the
:data:`METRICS` singleton collects engine cell timings, store
hit/miss/single-flight counts, HTTP route latencies, and the
jobs-service series, so one ``/metrics`` scrape
describes the whole process.
"""

from __future__ import annotations

import threading
from typing import Iterator

#: Every histogram's seconds buckets, sized for this workload: warm
#: cells are sub-ms, a cold cell is ~0.3-0.5 s, multi-cell jobs run
#: seconds to minutes.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0
)

#: Collapsed-series label value once a metric's cardinality bound hits.
OVERFLOW_LABEL = "_other"

#: Distinct-label-set bound per metric.
DEFAULT_MAX_SERIES = 64


def _format_value(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus style)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + rendered + "}"


class _Series:
    """One label-set's state within a metric."""

    __slots__ = ("value", "count", "total", "buckets")

    def __init__(self, bucket_count: int = 0) -> None:
        self.value = 0.0
        self.count = 0
        self.total = 0.0
        self.buckets = [0] * bucket_count


class Metric:
    """One named counter/gauge/histogram family."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.label_names = label_names
        self.buckets = DEFAULT_BUCKETS if kind == "histogram" else ()
        self._series: dict[tuple[str, ...], _Series] = {}

    def _series_for(self, label_values: tuple[str, ...]) -> _Series:
        series = self._series.get(label_values)
        if series is None:
            if len(self._series) >= DEFAULT_MAX_SERIES:
                label_values = (OVERFLOW_LABEL,) * len(self.label_names)
                series = self._series.get(label_values)
            if series is None:
                series = self._series[label_values] = _Series(
                    len(self.buckets)
                )
        return series

    def _resolve(self, labels: dict[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{list(self.label_names)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    # Mutators are called under the registry lock.

    def inc(self, labels: dict[str, str]) -> None:
        self._series_for(self._resolve(labels)).value += 1.0

    def set(self, labels: dict[str, str], value: float) -> None:
        self._series_for(self._resolve(labels)).value = value

    def observe(self, labels: dict[str, str], value: float) -> None:
        series = self._series_for(self._resolve(labels))
        series.count += 1
        series.total += value
        # Storage is per-bucket (non-cumulative); render_text cumulates.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                series.buckets[index] += 1
                break

    # Renderers.

    def render_text(self) -> Iterator[str]:
        yield f"# HELP {self.name} {self.help_text}"
        yield f"# TYPE {self.name} {self.kind}"
        for label_values in sorted(self._series):
            series = self._series[label_values]
            labels = tuple(zip(self.label_names, label_values))
            if self.kind == "histogram":
                cumulative = 0
                for bound, bucket in zip(self.buckets, series.buckets):
                    cumulative += bucket
                    bucket_labels = labels + (("le", _format_value(bound)),)
                    yield (
                        f"{self.name}_bucket{_format_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                inf_labels = labels + (("le", "+Inf"),)
                yield f"{self.name}_bucket{_format_labels(inf_labels)} {series.count}"
                yield f"{self.name}_sum{_format_labels(labels)} {_format_value(round(series.total, 6))}"
                yield f"{self.name}_count{_format_labels(labels)} {series.count}"
            else:
                yield (
                    f"{self.name}{_format_labels(labels)} "
                    f"{_format_value(series.value)}"
                )

    def render_json(self) -> dict:
        series_docs = []
        for label_values in sorted(self._series):
            series = self._series[label_values]
            doc: dict = {"labels": dict(zip(self.label_names, label_values))}
            if self.kind == "histogram":
                doc["count"] = series.count
                doc["sum"] = round(series.total, 6)
                doc["buckets"] = {
                    _format_value(bound): bucket
                    for bound, bucket in zip(self.buckets, series.buckets)
                }
            else:
                doc["value"] = series.value
            series_docs.append(doc)
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help_text,
            "series": series_docs,
        }


class MetricsRegistry:
    """Thread-safe collection of metrics with one render path."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Metric(
                name, kind, help_text, label_names
            )
        elif metric.kind != kind or metric.label_names != label_names:
            raise ValueError(
                f"metric {name!r} re-registered with a different "
                f"kind/label set"
            )
        return metric

    def counter_inc(self, name: str, help_text: str, **labels: str) -> None:
        """Add one to a counter (registered on first use)."""
        with self._lock:
            metric = self._register(
                name, "counter", help_text, tuple(sorted(labels))
            )
            metric.inc(labels)

    def gauge_set(
        self, name: str, help_text: str, value: float, **labels: str
    ) -> None:
        """Set a gauge to an absolute value."""
        with self._lock:
            metric = self._register(
                name, "gauge", help_text, tuple(sorted(labels))
            )
            metric.set(labels, value)

    def observe(
        self, name: str, help_text: str, value: float, **labels: str
    ) -> None:
        """Record one histogram observation."""
        with self._lock:
            metric = self._register(
                name, "histogram", help_text, tuple(sorted(labels))
            )
            metric.observe(labels, value)

    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter series (0 when absent)."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            key = tuple(str(labels[n]) for n in metric.label_names)
            series = metric._series.get(key)
            return 0.0 if series is None else series.value

    def histogram_stats(
        self, name: str, **label_filter: str
    ) -> tuple[int, float, list[int]]:
        """``(count, sum, per-bucket counts)`` aggregated over matching
        series of one histogram.  Bucket counts are non-cumulative and
        align with the metric's bucket bounds; ``(0, 0.0, [])`` when the
        metric is unknown.
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None or metric.kind != "histogram":
                return 0, 0.0, []
            wanted = {
                name_: str(value) for name_, value in label_filter.items()
            }
            count, total = 0, 0.0
            buckets = [0] * len(metric.buckets)
            for label_values, series in metric._series.items():
                labels = dict(zip(metric.label_names, label_values))
                if not all(labels.get(k) == v for k, v in wanted.items()):
                    continue
                count += series.count
                total += series.total
                for index, bucket in enumerate(series.buckets):
                    buckets[index] += bucket
            return count, total, buckets

    def reset(self) -> None:
        """Drop every metric (test isolation for the shared registry)."""
        with self._lock:
            self._metrics.clear()

    def render_text(self) -> str:
        """The Prometheus-style exposition body."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._metrics):
                lines.extend(self._metrics[name].render_text())
        return "\n".join(lines) + "\n"

    def render_json(self) -> list[dict]:
        """Every metric as a JSON-ready document."""
        with self._lock:
            return [
                self._metrics[name].render_json()
                for name in sorted(self._metrics)
            ]


#: The process-wide registry: every subsystem that does not receive an
#: explicit registry emits here, so ``GET /metrics`` on any service in
#: this process describes engine, stores, HTTP and jobs at once.
METRICS = MetricsRegistry()
