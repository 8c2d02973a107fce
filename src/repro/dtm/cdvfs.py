"""DTM-CDVFS: coordinated dynamic voltage and frequency scaling (§4.2.2).

CDVFS links the DRAM/AMB thermal emergency level directly to the
processor's DVFS ladder: hotter memory, slower (and lower-voltage)
cores.  Two effects follow: slightly less speculative memory traffic
(§4.4.2, ~4.5%), and a large processor energy saving (§4.4.3, ~36–42%)
because power scales with V^2·f.  Under the integrated thermal model the
reduced processor heat also lowers the memory inlet temperature, which
is why CDVFS overtakes ACG on real systems (§4.5, §5.4.3).
"""

from __future__ import annotations

from typing import Any

from repro.dtm.base import ControlDecision, DTMPolicy, _decision_memo
from repro.dtm.levels import TRACKER_FIELD, LevelTracker
from repro.params.emergency import EmergencyLevels, SIMULATION_LEVELS


class DTMCDVFS(DTMPolicy):
    """Coordinated DVFS by emergency level.

    Args:
        levels: emergency table with the DVFS ladder.
        cores: core count reported in decisions (all cores scale together).
        stopped_level: ladder position meaning "all cores stopped"; equals
            the number of operating points (4 on both platforms).
    """

    name = "DTM-CDVFS"
    STATE_FIELDS = (TRACKER_FIELD,)

    def __init__(
        self,
        levels: EmergencyLevels | None = None,
        cores: int = 4,
        stopped_level: int = 4,
    ) -> None:
        self._levels = levels if levels is not None else SIMULATION_LEVELS
        self._tracker = LevelTracker(self._levels)
        self._cores = cores
        self._stopped_level = stopped_level

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Map the emergency level to a DVFS ladder position."""
        level = self._tracker.level(reading)
        memo = _decision_memo(self)
        decision = memo.get(level)
        if decision is None:
            dvfs = min(self._levels.cdvfs_levels[level], self._stopped_level)
            stopped = dvfs >= self._stopped_level
            decision = memo[level] = ControlDecision(
                memory_on=not stopped,
                active_cores=0 if stopped else self._cores,
                dvfs_level=dvfs,
                emergency_level=level,
            )
        return decision

    def reset(self) -> None:
        """Clear the shutdown latch."""
        self._tracker.reset()
