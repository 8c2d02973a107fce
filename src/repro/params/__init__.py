"""Parameter tables transcribed from the paper.

Each module in this package holds one family of constants:

- :mod:`repro.params.dram_timing` — Table 4.1 (simulator / DDR2 timing).
- :mod:`repro.params.power_params` — Eq. 3.1 constants and Table 3.1
  (FBDIMM power model), Table 4.4 (processor power per DTM state).
- :mod:`repro.params.thermal_params` — Tables 3.2 and 3.3 (thermal
  resistances, RC time constants, ambient-model parameters).
- :mod:`repro.params.emergency` — Tables 4.3 and 5.1 (thermal emergency
  levels and the control decision ladder of every DTM scheme).

The values are deliberately kept as plain dataclasses / dictionaries so a
user can construct modified copies for sensitivity studies without touching
library code.
"""
