"""Thermal models of Chapter 3.

- :mod:`repro.thermal.rc` — the first-order thermal-RC update of Eq. 3.5.
- :mod:`repro.thermal.isolated` — the isolated DIMM model (Eqs. 3.3–3.5):
  stable AMB/DRAM temperatures from power, exponential approach dynamics,
  constant ambient.
- :mod:`repro.thermal.integrated` — the integrated model (Eq. 3.6): DRAM
  ambient temperature pre-heated by processor activity.
- :mod:`repro.thermal.sensors` — thermal sensor emulation (quantization,
  reading period, noise spikes) matching the measured platforms of Ch. 5.
"""
