"""Declarative SLOs evaluated straight from the metrics registry.

An :class:`SloSpec` names a target over series the process already
exports — a latency quantile bound read from a histogram, or a ratio
of counter series (error rate, warm-hit rate).  :func:`evaluate` turns
the registry's current state into :class:`SloResult` verdicts, which
back three surfaces:

- ``GET /v1/slo`` — the live document;
- ``repro slo check`` — CI/cron gate, nonzero exit on any breach;
- :func:`render_alert_rules` — the same specs as a Prometheus
  alerting-rules file with classic multi-window burn-rate alerts, for
  deployments that scrape ``/metrics`` into a real Prometheus.

Quantiles are estimated as the upper bound of the first histogram
bucket covering the target rank — conservative (never under-reports a
latency), which is the right bias for a breach gate.  An SLO with no
observations reports ``no_data`` and never breaches: a freshly booted
service is not in violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS, MetricsRegistry

#: Verdict states.
OK, BREACH, NO_DATA = "ok", "breach", "no_data"


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over exported metrics.

    ``kind`` selects the evaluator:

    - ``"quantile"`` — ``metric`` is a histogram; the ``quantile`` of
      its aggregate distribution must satisfy the threshold.
    - ``"ratio"`` — ``metric`` filtered by ``event_labels`` divided by
      the same family unfiltered; the ratio must satisfy the threshold.

    ``direction`` is ``"le"`` (value must stay at or below the
    threshold: latencies, error rates) or ``"ge"`` (at or above:
    hit ratios).
    """

    name: str
    description: str
    kind: str
    metric: str
    threshold: float
    direction: str = "le"
    quantile: float = 0.99
    event_labels: tuple[tuple[str, str], ...] = ()
    #: Ratios over fewer events than this report ``no_data`` rather
    #: than letting one early failure read as a 100% error rate.
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("quantile", "ratio"):
            raise ConfigurationError(
                f"SLO {self.name!r}: kind must be 'quantile' or 'ratio', "
                f"got {self.kind!r}"
            )
        if self.direction not in ("le", "ge"):
            raise ConfigurationError(
                f"SLO {self.name!r}: direction must be 'le' or 'ge', "
                f"got {self.direction!r}"
            )


@dataclass(frozen=True)
class SloResult:
    """One evaluated SLO: measured value vs target."""

    spec: SloSpec
    status: str
    value: float | None
    detail: str

    def to_dict(self) -> dict:
        value = self.value
        if value is not None and not math.isfinite(value):
            # An inf quantile estimate (tail beyond the last bucket)
            # has no JSON-safe rendering; the verdict already encodes
            # it and detail says why the value is absent.
            value = None
        return {
            "name": self.spec.name,
            "description": self.spec.description,
            "kind": self.spec.kind,
            "metric": self.spec.metric,
            "direction": self.spec.direction,
            "threshold": self.spec.threshold,
            "value": value,
            "status": self.status,
            "detail": self.detail,
        }


#: The stock objective set: jobs-service latency and correctness plus
#: the cache's warm-hit efficiency.  Thresholds are deliberately
#: generous defaults — tune per deployment with ``--slo name=value``.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(
        name="p99_job_latency",
        description="99th percentile submit-to-terminal job latency (s)",
        kind="quantile",
        metric="repro_job_latency_seconds",
        quantile=0.99,
        threshold=120.0,
    ),
    SloSpec(
        name="p99_queue_wait",
        description="99th percentile submit-to-first-start queue wait (s)",
        kind="quantile",
        metric="repro_job_queue_wait_seconds",
        quantile=0.99,
        threshold=30.0,
    ),
    SloSpec(
        name="job_error_rate",
        description="Share of terminal jobs that failed",
        kind="ratio",
        metric="repro_jobs_finished_total",
        event_labels=(("status", "failed"),),
        threshold=0.01,
    ),
    SloSpec(
        name="warm_hit_ratio",
        description="Share of store lookups answered from cache",
        kind="ratio",
        metric="repro_store_requests_total",
        event_labels=(("cache", "hit"),),
        direction="ge",
        threshold=0.5,
        min_events=10,
    ),
)


def _satisfied(value: float, spec: SloSpec) -> bool:
    if spec.direction == "le":
        return value <= spec.threshold
    return value >= spec.threshold


def _evaluate_one(registry: MetricsRegistry, spec: SloSpec) -> SloResult:
    if spec.kind == "quantile":
        count, _, _ = registry.histogram_stats(spec.metric)
        if count < spec.min_events:
            return SloResult(spec, NO_DATA, None, f"{count} observation(s)")
        value = registry.histogram_quantile(spec.metric, spec.quantile)
        if value is None:
            return SloResult(spec, NO_DATA, None, "no histogram data")
        status = OK if _satisfied(value, spec) else BREACH
        detail = f"p{int(spec.quantile * 100)} over {count} observation(s)"
        if math.isinf(value):
            detail += ", beyond the largest bucket"
        return SloResult(spec, status, value, detail)
    total = registry.counter_total(spec.metric)
    if total < spec.min_events:
        return SloResult(spec, NO_DATA, None, f"{int(total)} event(s)")
    events = registry.counter_total(
        spec.metric, **dict(spec.event_labels)
    )
    value = events / total
    status = OK if _satisfied(value, spec) else BREACH
    detail = f"{int(events)}/{int(total)} events"
    return SloResult(spec, status, value, detail)


def evaluate(
    registry: MetricsRegistry | None = None,
    specs: tuple[SloSpec, ...] = DEFAULT_SLOS,
) -> list[SloResult]:
    """Every spec's current verdict against ``registry`` (or METRICS)."""
    registry = registry if registry is not None else METRICS
    return [_evaluate_one(registry, spec) for spec in specs]


def slo_document(registry: MetricsRegistry | None = None) -> dict:
    """The ``GET /v1/slo`` body: the stock objectives' results plus an
    overall verdict."""
    results = evaluate(registry, DEFAULT_SLOS)
    breaches = sum(1 for result in results if result.status == BREACH)
    return {
        "status": BREACH if breaches else OK,
        "breaches": breaches,
        "slos": [result.to_dict() for result in results],
    }


def with_overrides(
    specs: tuple[SloSpec, ...], overrides: dict[str, float]
) -> tuple[SloSpec, ...]:
    """Specs with per-name threshold overrides applied.

    Unknown names raise — a typo in an alert gate must not silently
    gate nothing.
    """
    known = {spec.name for spec in specs}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown SLO name(s) {unknown}; known: {sorted(known)}"
        )
    return tuple(
        replace(spec, threshold=float(overrides[spec.name]))
        if spec.name in overrides
        else spec
        for spec in specs
    )


def reverdict(slos: list[dict], overrides: dict[str, float]) -> None:
    """Re-verdict fetched ``GET /v1/slo`` results in place against
    overridden thresholds.

    The service reported each objective's measured value, so an
    override is a client-side re-check through :func:`with_overrides`
    (unknown names raise) and the objective's own comparison: no second
    scrape, and a way to gate CI tighter than the deployed defaults.
    """
    specs = with_overrides(
        tuple(
            SloSpec(
                name=entry["name"], description=entry["description"],
                kind=entry["kind"], metric=entry["metric"],
                threshold=entry["threshold"], direction=entry["direction"],
            )
            for entry in slos
        ),
        overrides,
    )
    for entry, spec in zip(slos, specs):
        if spec.name not in overrides:
            continue
        entry["threshold"] = spec.threshold
        value = entry["value"]
        if entry["status"] != NO_DATA and value is not None:
            entry["status"] = OK if _satisfied(value, spec) else BREACH


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in name.split("_"))


def render_alert_rules(
    specs: tuple[SloSpec, ...] = DEFAULT_SLOS,
) -> str:
    """The specs as a Prometheus alerting-rules file (YAML text).

    Ratio SLOs get the classic two-window burn-rate pair (fast burn:
    14.4x over 5m, page; slow burn: 6x over 1h, ticket) against the
    error budget implied by the threshold.  Quantile SLOs get a single
    sustained-breach rule on ``histogram_quantile`` over the bucket
    rates.  The output is plain text — no Prometheus dependency here;
    point your own prometheus at ``/metrics`` and load this file.
    """
    lines = [
        "# Generated by `repro slo rules` — burn-rate alerts for the",
        "# repro /metrics exposition.  Load as a Prometheus rules file.",
        "groups:",
        "- name: repro-slo",
        "  rules:",
    ]
    for spec in specs:
        alert = _camel(spec.name)
        if spec.kind == "quantile":
            expr = (
                f"histogram_quantile({spec.quantile}, "
                f"sum(rate({spec.metric}_bucket[10m])) by (le)) "
                f"{'>' if spec.direction == 'le' else '<'} {spec.threshold}"
            )
            lines += [
                f"  - alert: {alert}Breach",
                f"    expr: {expr}",
                "    for: 10m",
                "    labels: {severity: ticket}",
                "    annotations:",
                f"      summary: \"{spec.description} out of objective\"",
            ]
            continue
        selector = "".join(
            f'{name}="{value}",' for name, value in spec.event_labels
        ).rstrip(",")
        if spec.direction == "le":
            budget = max(spec.threshold, 1e-9)
            ratio = (
                f"sum(rate({spec.metric}{{{selector}}}[{{win}}])) / "
                f"sum(rate({spec.metric}[{{win}}]))"
            )
        else:
            # A floor objective burns budget with *misses* of the good
            # event; invert to an error-style ratio.
            budget = max(1.0 - spec.threshold, 1e-9)
            ratio = (
                f"(1 - sum(rate({spec.metric}{{{selector}}}[{{win}}])) / "
                f"sum(rate({spec.metric}[{{win}}])))"
            )
        for window, factor, severity in (("5m", 14.4, "page"), ("1h", 6.0, "ticket")):
            expr = f"{ratio.replace('{win}', window)} > {round(factor * budget, 6)}"
            lines += [
                f"  - alert: {alert}{'Fast' if severity == 'page' else 'Slow'}Burn",
                f"    expr: {expr}",
                f"    for: {window}",
                f"    labels: {{severity: {severity}}}",
                "    annotations:",
                f"      summary: \"{spec.description}: {factor}x budget burn "
                f"over {window}\"",
            ]
    return "\n".join(lines) + "\n"
