"""`repro.obs` — the observability spine: tracing, metrics, SLOs, logs.

One package answers "what is this process doing and is it healthy":

- :mod:`repro.obs.trace` — spans with ``X-Repro-Trace`` propagation,
  a bounded ring, JSONL sink, and Chrome trace-event export;
- :mod:`repro.obs.metrics` — the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` (:data:`METRICS`)
  behind every ``/metrics`` scrape;
- :mod:`repro.obs.slo` — declarative objectives evaluated from those
  metrics, served at ``/v1/slo`` and gated by ``repro slo check``;
- :mod:`repro.obs.log` — one-line JSON logs correlated by trace id.

The package itself imports nothing: import the submodule you need.
"""
