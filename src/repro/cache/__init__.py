"""Shared-cache substrate.

DTM-ACG's headline effect — gating cores cuts L2 contention, which cuts
memory traffic ~17% (§4.4.2) — flows entirely through the shared cache.
This package provides:

- :mod:`repro.cache.mrc` — parametric miss-ratio curves.
- :mod:`repro.cache.sharing` — the multi-program contention model: an
  insertion-rate-proportional occupancy fixed point that predicts each
  co-runner's effective cache share.
"""
