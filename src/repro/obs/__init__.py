"""`repro.obs` — the observability spine: tracing, metrics, logs.

One package answers "what is this process doing and where does the
time go":

- :mod:`repro.obs.trace` — spans with ``X-Repro-Trace`` propagation,
  a bounded ring, and Chrome trace-event export;
- :mod:`repro.obs.metrics` — the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` (:data:`METRICS`)
  behind every ``/metrics`` scrape;
- :mod:`repro.obs.log` — one-line JSON logs correlated by trace id.

The package itself imports nothing: import the submodule you need.
"""
