"""Chapter 5: real-system testbed emulation.

The paper's case study implements the DTM schemes in Linux on two
servers — a Dell PowerEdge 1950 and an instrumented Intel SR1500AL —
and measures them with a sensor daughter card.  We cannot ship those
machines, so this package models them:

- :mod:`repro.testbed.platforms` — the two server configurations:
  Xeon 5160 sockets, per-socket shared L2, FBDIMM population, airflow
  (CPU exhaust pre-heats the memory inlet), TDPs and emergency tables.
- :mod:`repro.testbed.performance` — a socket-aware window model: two
  cores share each socket's L2; when core gating leaves one core per
  socket, the two resident programs time-share it with switch-induced
  cold misses (the Fig. 5.15 effect).
- :mod:`repro.testbed.linux` — the OS mechanisms of §5.2.1: CPU hotplug
  (core 0 protected), cpufreq ladder, scheduler time slices.
- :mod:`repro.testbed.chipset` — the Intel 5000X open-loop activation
  throttle used as the worst-case safety net and by DTM-BW.
- :mod:`repro.testbed.daughtercard` — sensor sampling with noise spikes
  (§5.3.1), including the despiking methodology of §5.4.1.
- :mod:`repro.testbed.runner` — the measurement-style experiment runner
  producing Fig. 5.4–5.15 data.
"""

from repro import lazy_exports

_EXPORTS = {
    "PE1950": "platforms",
    "SR1500AL": "platforms",
    "ServerSimulator": "runner",
    "ServerWindowModel": "performance",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
