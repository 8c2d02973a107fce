"""The paper's primary contribution: the two-level thermal simulator.

Level 1 (:mod:`repro.core.windowmodel`) produces performance and
memory-throughput figures for every combination of co-running
applications and DTM control state, in 10 ms windows — the role the
paper's extended M5 plays (§4.3.1, Fig. 4.1).  Its memo, filled as the
runs ask for windows, is the level-1 table.

Level 2 (:mod:`repro.core.memspot`) is MEMSpot: it replays those windows
through the power model (Eq. 3.1/3.2), the thermal model (Eqs. 3.3–3.6)
and the DTM policy, closing the control loop.  The simulators step its
flat, bit-identical form, :class:`repro.core.kernel.BatchedMemSpot`;
``MemSpot`` itself is the readable equation-by-equation oracle.

:class:`repro.core.simulator.TwoLevelSimulator` wires both levels to the
batch-job scheduler and runs a workload to completion.
"""
