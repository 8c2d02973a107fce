"""Cycle-level FBDIMM / DDR2 memory-system substrate.

The paper's first-level simulator extends M5 with a detailed FBDIMM
model: "the details of FBDIMM northbound and southbound links and isolated
command and data buses inside FBDIMM are simulated, and so are DRAM access
scheduling and operations at all DRAM chips and banks" (§4.3.1).  This
package is that substrate, built from scratch:

- :mod:`repro.dram.commands` — DRAM commands and memory requests.
- :mod:`repro.dram.address` — physical address decomposition and the
  close-page interleaved mapping.
- :mod:`repro.dram.bank` — per-bank state machines with full DDR2 timing
  enforcement (tRCD/tCL/tRP/tRAS/tRC/tWTR/tWL/tWPD/tRPD/tRRD).
- :mod:`repro.dram.amb` — the Advanced Memory Buffer: pass-through and
  translation latency plus local/bypass traffic accounting.
- :mod:`repro.dram.channel` — southbound/northbound frame links.
- :mod:`repro.dram.controller` — the 64-entry memory controller with
  first-ready FCFS scheduling, close-page auto-precharge policy and
  row-activation throttling (the Intel-5000X-style open loop).
- :mod:`repro.dram.trafficgen` — synthetic request streams.
- :mod:`repro.dram.system` — a multi-channel memory system facade.
- :mod:`repro.dram.stats` — bandwidth/latency statistics.

The simulator is *timing-exact*: every constraint of Table 4.1 is checked
on every command, and violations raise :class:`repro.errors.TimingViolationError`.
"""
