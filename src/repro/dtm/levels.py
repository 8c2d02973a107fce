"""Emergency-level tracking shared by the table-driven policies.

:class:`LevelTracker` quantizes readings through an
:class:`repro.params.emergency.EmergencyLevels` table and optionally adds
release hysteresis: once the highest level triggers a full shutdown, the
policy stays shut down until the temperature falls to the release point
(the DTM-TS behaviour the other schemes inherit at their top level).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.dtm.base import ThermalReading
from repro.engine.codec import Field, Flag, Nested
from repro.params.emergency import EmergencyLevels


class LevelTracker:
    """Quantizes thermal readings into emergency levels with hysteresis."""

    STATE_FIELDS = (Field("latched", "_latched_shutdown", Flag(), False),)

    def __init__(self, levels: EmergencyLevels) -> None:
        self._levels = levels
        self._latched_shutdown = False
        self._amb_thresholds = tuple(levels.amb_thresholds_c)
        self._dram_thresholds = tuple(levels.dram_thresholds_c)
        self._top = levels.level_count - 1

    @property
    def latched(self) -> bool:
        """Whether the tracker is latched in the shutdown state."""
        return self._latched_shutdown

    def level(self, reading: ThermalReading) -> int:
        """Current emergency level with top-level release hysteresis.

        ``reading`` is anything with ``amb_c``/``dram_c`` attributes.
        Reaching the highest level latches it; the latch clears only when
        both temperatures fall to their thermal release points, at which
        point the level is re-evaluated normally.
        """
        amb_c = reading.amb_c
        dram_c = reading.dram_c
        # ``EmergencyLevels.level``, on the cached thresholds.
        raw = bisect_right(self._amb_thresholds, amb_c)
        dram_level = bisect_right(self._dram_thresholds, dram_c)
        if dram_level > raw:
            raw = dram_level
        if raw >= self._top:
            self._latched_shutdown = True
        if self._latched_shutdown:
            levels = self._levels
            if not (amb_c <= levels.amb_trp_c and dram_c <= levels.dram_trp_c):
                return self._top
            self._latched_shutdown = False
        return raw

    def reset(self) -> None:
        """Clear the shutdown latch."""
        self._latched_shutdown = False


#: The checkpoint field of a policy's level tracker.
TRACKER_FIELD = Field("tracker", "_tracker", Nested(), {})
