"""Analysis utilities: normalization, tables, experiment specs, campaigns.

- :mod:`repro.analysis.normalize` — normalization helpers used by every
  figure (the paper reports runtimes/traffic/energy relative to either
  the no-limit baseline or DTM-TS/DTM-BW).
- :mod:`repro.analysis.tables` — fixed-width table, CSV, and sparkline
  rendering so benches print figures legibly in a terminal.
- :mod:`repro.analysis.series` — time-series helpers for the temperature
  trace figures.
- :mod:`repro.analysis.specs` — the Chapter 4/5 run specs and
  runners, registered with the :mod:`repro.campaign` engine, which
  caches them in memory and on disk so the 25+ benches don't recompute
  the same (workload, policy, cooling) runs.
- :mod:`repro.analysis.campaigns` — named parameter grids for the
  ``python -m repro campaign`` subcommand.

The package itself imports nothing: import the submodule you need, so a
table renderer never loads the simulators.
"""
