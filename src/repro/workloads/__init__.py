"""Synthetic SPEC-like workloads.

The paper drives its experiments with SPEC CPU2000/CPU2006 programs.  We
cannot ship or execute SPEC, so each program is replaced by a *profile* —
the small set of architectural traits the two-level simulator actually
consumes: base CPI, L2 access rate, miss-ratio curve, write fraction,
memory-level parallelism and dynamic instruction count.  The profiles are
calibrated so the derived behaviours match the paper's reported classes
(which programs exceed 10 GB/s of memory throughput with four copies,
which sit between 5 and 10 GB/s, which idle below — §4.3.2 / §5.4.1).

- :mod:`repro.workloads.profiles` — the application profiles.
- :mod:`repro.workloads.mixes` — workload mixes W1..W8 (Table 4.2) and
  W11/W12 (Table 5.2).
- :mod:`repro.workloads.batch` — the batch-job model: N copies of every
  application in the mix, assigned to cores round-robin as jobs finish.
"""
