"""PID-driven variants of the DTM schemes (§4.2.3).

Two controllers run side by side — one regulating the AMB temperature,
one the DRAM temperature — and the more conservative output acts (for
any given cooling configuration one of the two is always the binding
limit, §4.2.3).  The normalized output selects a rung of the same
decision ladder the table-driven scheme uses
(:func:`repro.dtm.ladder.ladder_decision`), so "DTM-ACG + PID" picks an
active-core count, "DTM-CDVFS + PID" a DVFS level, and "DTM-BW + PID" a
bandwidth cap.  A reading at or above a TDP forces the most aggressive
rung regardless of controller state (the worst-case safety net).
"""

from __future__ import annotations

from typing import Any

from repro.dtm.base import CORES, ControlDecision, DTMPolicy
from repro.dtm.ladder import ladder_decision
from repro.dtm.pid import (
    AMB_GAINS,
    AMB_INTEGRAL_ENABLE_C,
    AMB_TARGET_C,
    DRAM_GAINS,
    DRAM_INTEGRAL_ENABLE_C,
    DRAM_TARGET_C,
    PIDController,
)
from repro.engine.codec import Field, Nested
from repro.errors import ConfigurationError
from repro.params.emergency import SIMULATION_LEVELS


class PIDPolicy(DTMPolicy):
    """A Chapter 4 DTM scheme actuated by the dual PID controllers, on
    the Table 4.3 ladders and TDPs and the four Table 4.1 cores.

    Args:
        scheme: one of "bw", "acg", "cdvfs", "comb" — which actuator the
            normalized controller output drives.
    """

    STATE_FIELDS = (
        Field("amb", "_amb_pid", Nested(), {}),
        Field("dram", "_dram_pid", Nested(), {}),
    )

    def __init__(self, scheme: str, integral_enabled: bool = True) -> None:
        if scheme not in ("bw", "acg", "cdvfs", "comb"):
            raise ConfigurationError(f"unknown PID scheme {scheme!r}")
        self._levels = SIMULATION_LEVELS
        self._decisions = tuple(
            ladder_decision(scheme, self._levels, rung, CORES, 0)
            for rung in range(self._levels.level_count)
        )
        self._top_rung = self._levels.level_count - 1
        self.name = f"DTM-{scheme.upper()}+PID"
        amb_enable = AMB_INTEGRAL_ENABLE_C if integral_enabled else float("inf")
        dram_enable = DRAM_INTEGRAL_ENABLE_C if integral_enabled else float("inf")
        self._amb_pid = PIDController(
            AMB_GAINS, AMB_TARGET_C, integral_enable_c=amb_enable
        )
        self._dram_pid = PIDController(
            DRAM_GAINS, DRAM_TARGET_C, integral_enable_c=dram_enable
        )

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Run both controllers; the binding (lower) output acts."""
        amb_c = reading.amb_c
        dram_c = reading.dram_c
        amb_u = self._amb_pid.normalized(self._amb_pid.update(amb_c, dt_s))
        dram_u = self._dram_pid.normalized(self._dram_pid.update(dram_c, dt_s))
        u = dram_u if dram_u < amb_u else amb_u  # min(amb_u, dram_u)
        # u = 1 -> rung 0 (full performance); u = 0 -> most aggressive rung.
        rung = round((1.0 - u) * self._top_rung)
        # Safety net: at/above a TDP, force the most aggressive rung.
        if amb_c >= self._levels.amb_tdp_c or dram_c >= self._levels.dram_tdp_c:
            rung = self._top_rung
        return self._decisions[rung]

    def reset(self) -> None:
        """Reset both controllers."""
        self._amb_pid.reset()
        self._dram_pid.reset()

