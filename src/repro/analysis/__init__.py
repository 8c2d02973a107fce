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
  ``python -m repro campaign`` subcommand.  Not re-exported here: it
  builds on :mod:`repro.scenarios`, which builds on the specs, so
  importing it from this package would make the two packages import
  each other.
"""

from repro.analysis.normalize import geometric_mean, normalize_map
from repro.analysis.tables import format_csv, format_table, sparkline
from repro.analysis.series import downsample, summarize_series
from repro.analysis.specs import (
    Chapter4Spec,
    Chapter5Spec,
    bench_copies,
    run_chapter4,
    run_chapter5,
)

__all__ = [
    "geometric_mean",
    "normalize_map",
    "format_csv",
    "format_table",
    "sparkline",
    "downsample",
    "summarize_series",
    "Chapter4Spec",
    "Chapter5Spec",
    "bench_copies",
    "run_chapter4",
    "run_chapter5",
]
