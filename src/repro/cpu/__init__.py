"""Processor power as a function of DTM state.

The proposed DTM schemes act on the processor rather than the memory
controller: DTM-ACG clock-gates cores, DTM-CDVFS walks the DVFS ladder.
The gating and scaling themselves live with the runs that apply them
(:class:`~repro.core.simulator.Chapter4Strategy` on the simulated
platform, :class:`~repro.testbed.linux.CPUHotplug` and
:class:`~repro.testbed.linux.CPUFreq` on the servers); this package
prices the resulting chip state:

- :mod:`repro.cpu.power` — chip power as a function of DTM state
  (Table 4.4 for the simulated platform, activity-based for Chapter 5).
"""
