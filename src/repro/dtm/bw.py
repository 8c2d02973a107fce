"""DTM-BW: memory bandwidth throttling (§2.3, §4.2.1, §5.2.2).

The controller evaluates the thermal emergency level each interval and
enforces the corresponding memory traffic limit from the emergency table
(Table 4.3 / Table 5.1).  At the highest level the memory shuts down
entirely, with DTM-TS-style release hysteresis.
"""

from __future__ import annotations

from typing import Any

from repro.dtm.base import ControlDecision, DTMPolicy, _decision_memo
from repro.dtm.levels import TRACKER_FIELD, LevelTracker
from repro.params.emergency import EmergencyLevels, SIMULATION_LEVELS


class DTMBW(DTMPolicy):
    """Bandwidth throttling by emergency level.

    Args:
        levels: emergency table with the bandwidth ladder.
        cores: core count reported in decisions (BW never gates cores —
            that is exactly why it wastes processor energy, §4.4.3).
    """

    name = "DTM-BW"
    STATE_FIELDS = (TRACKER_FIELD,)

    def __init__(self, levels: EmergencyLevels | None = None, cores: int = 4) -> None:
        self._levels = levels if levels is not None else SIMULATION_LEVELS
        self._tracker = LevelTracker(self._levels)
        self._cores = cores

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Look up the traffic cap for the current emergency level."""
        level = self._tracker.level(reading)
        memo = _decision_memo(self)
        decision = memo.get(level)
        if decision is None:
            cap = self._levels.bw_caps_bytes_per_s[level]
            memory_on = cap is None or cap > 0.0
            decision = memo[level] = ControlDecision(
                memory_on=memory_on,
                bandwidth_cap_bytes_per_s=cap if memory_on else 0.0,
                active_cores=self._cores,
                emergency_level=level,
            )
        return decision

    def reset(self) -> None:
        """Clear the shutdown latch."""
        self._tracker.reset()
