"""FBDIMM power models (Chapter 3, §3.3).

- :mod:`repro.power.dram_power` — the simple DRAM chip power model, Eq. 3.1.
- :mod:`repro.power.amb_power` — the AMB power model, Eq. 3.2.
- :mod:`repro.power.dimm_power` — per-DIMM power with the local/bypass
  traffic split implied by the daisy-chain position.

The energy figures (Figs. 4.9 / 4.10 / 5.11) integrate these powers
window by window in the accumulators of
:class:`~repro.engine.stepping.SteppingEngine`.
"""

from repro.power.dram_power import dram_power_w
from repro.power.amb_power import amb_power_w
from repro.power.dimm_power import ChannelTraffic, DimmPower, channel_dimm_powers

__all__ = [
    "dram_power_w",
    "amb_power_w",
    "ChannelTraffic",
    "DimmPower",
    "channel_dimm_powers",
]
