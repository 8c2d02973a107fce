"""DTM-COMB: combined core gating and DVFS (§5.2.2).

The Chapter 5 extension: walk both ladders at once — stop a subset of
cores *and* scale the survivors' frequency/voltage.  It inherits ACG's
L2-contention relief and CDVFS's processor-heat reduction, and improved
performance by up to 5.4% over the better of the two in the measured
study.
"""

from __future__ import annotations

from typing import Any

from repro.dtm.base import ControlDecision, DTMPolicy, _decision_memo
from repro.dtm.levels import TRACKER_FIELD, LevelTracker
from repro.params.emergency import EmergencyLevels, PE1950_LEVELS


class DTMCOMB(DTMPolicy):
    """Combined gating + DVFS by emergency level.

    Args:
        levels: emergency table; the active-core and DVFS ladders are
            applied simultaneously (Table 5.1 bottom rows).
        cores: total core count.
        min_active: lower bound on active cores (one per socket on the
            servers).
    """

    name = "DTM-COMB"
    STATE_FIELDS = (TRACKER_FIELD,)

    def __init__(
        self,
        levels: EmergencyLevels | None = None,
        cores: int = 4,
        min_active: int = 2,
    ) -> None:
        self._levels = levels if levels is not None else PE1950_LEVELS
        self._tracker = LevelTracker(self._levels)
        self._cores = cores
        self._min_active = min_active

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Apply both the core ladder and the DVFS ladder."""
        level = self._tracker.level(reading)
        memo = _decision_memo(self)
        decision = memo.get(level)
        if decision is None:
            levels = self._levels
            active = levels.acg_active_cores[level]
            if active > 0:
                active = max(active, self._min_active)
            decision = memo[level] = ControlDecision(
                memory_on=active > 0,
                active_cores=min(active, self._cores),
                dvfs_level=levels.cdvfs_levels[level],
                emergency_level=level,
            )
        return decision

    def reset(self) -> None:
        """Clear the shutdown latch."""
        self._tracker.reset()
