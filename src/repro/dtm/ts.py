"""DTM-TS: thermal shutdown (§2.3, §4.2.1).

The memory controller polls the temperature; when either the AMB or the
DRAM reaches its thermal design point, all memory accesses stop.  They
resume only when both temperatures have fallen to their thermal release
points.  The TRP is a tunable parameter — Fig. 4.2 sweeps it — and must
stay safely below the TDP to tolerate imperfect sensors (§4.4.1).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

from repro.dtm.base import CORES, ControlDecision, DTMPolicy
from repro.engine.codec import Field, Flag
from repro.errors import ConfigurationError
from repro.params.emergency import EmergencyLevels, SIMULATION_LEVELS


class DTMTS(DTMPolicy):
    """Thermal shutdown with TDP/TRP hysteresis.

    Args:
        levels: emergency table supplying the TDPs (and level count for
            the reported ``emergency_level``).
        amb_trp_c: AMB thermal release point override (Fig. 4.2 sweep);
            defaults to the table's value.
        dram_trp_c: DRAM release point override.
    """

    name = "DTM-TS"
    STATE_FIELDS = (Field("shut_down", "_shut_down", Flag(), False),)

    def __init__(
        self,
        levels: EmergencyLevels | None = None,
        amb_trp_c: float | None = None,
        dram_trp_c: float | None = None,
    ) -> None:
        self._levels = levels if levels is not None else SIMULATION_LEVELS
        self._amb_trp_c = amb_trp_c if amb_trp_c is not None else self._levels.amb_trp_c
        self._dram_trp_c = (
            dram_trp_c if dram_trp_c is not None else self._levels.dram_trp_c
        )
        # Written so that a NaN release point fails too: it would never
        # release the memory.
        if not self._amb_trp_c < self._levels.amb_tdp_c:
            raise ConfigurationError("AMB TRP must be below the AMB TDP")
        if not self._dram_trp_c < self._levels.dram_tdp_c:
            raise ConfigurationError("DRAM TRP must be below the DRAM TDP")
        self._shut_down = False
        #: Indexed by (shut down, emergency level).
        self._decisions = tuple(
            tuple(
                ControlDecision(
                    memory_on=not shut_down,
                    active_cores=CORES,
                    emergency_level=level,
                    index=shut_down * self._levels.level_count + level,
                )
                for level in range(self._levels.level_count)
            )
            for shut_down in (False, True)
        )
        self._amb_thresholds = tuple(self._levels.amb_thresholds_c)
        self._dram_thresholds = tuple(self._levels.dram_thresholds_c)

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """On/off decision with hysteresis between TDP and TRP."""
        amb_c = reading.amb_c
        dram_c = reading.dram_c
        levels = self._levels
        if amb_c >= levels.amb_tdp_c or dram_c >= levels.dram_tdp_c:
            self._shut_down = True
        elif (
            self._shut_down
            and amb_c <= self._amb_trp_c
            and dram_c <= self._dram_trp_c
        ):
            self._shut_down = False
        # ``levels.level(amb_c, dram_c)``, on the cached thresholds.
        level = bisect_right(self._amb_thresholds, amb_c)
        dram_level = bisect_right(self._dram_thresholds, dram_c)
        if dram_level > level:
            level = dram_level
        return self._decisions[self._shut_down][level]

    def reset(self) -> None:
        """Memory back on."""
        self._shut_down = False
