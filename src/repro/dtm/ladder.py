"""The table-driven DTM schemes: one decision ladder per scheme.

Each scheme quantizes the AMB / DRAM temperatures into a thermal
emergency level (Table 4.3 / Table 5.1) and applies that level's rung
of its decision ladder; :func:`ladder_decision` is the one map from a
rung to its actuator state, and the PID variants
(:mod:`repro.dtm.pid_policies`) pick rungs of the same ladders.

- :class:`DTMBW` (§2.3, §4.2.1) caps memory traffic; the top rung's
  zero cap shuts the memory down.
- :class:`DTMACG` (§4.2.2) clock-gates cores, cutting memory demand at
  its source.  Fewer co-runners also mean fewer shared-L2 conflict
  misses, ~17% less memory traffic, which is where most of its
  advantage comes from (§4.4.2).
- :class:`DTMCDVFS` (§4.2.2) links the level to the processor's DVFS
  ladder.  Slower cores issue slightly less speculative traffic
  (§4.4.2, ~4.5%) and save much processor energy (§4.4.3, ~36–42%),
  and under the integrated thermal model the cooler processor also
  lowers the memory inlet temperature (§4.5, §5.4.3).
- :class:`DTMCOMB` (§5.2.2) walks the gating and DVFS ladders at once,
  inheriting both effects.

A rung with no active core, or at the top of the CDVFS ladder, stops
the memory too (§4.2.2), and the top level latches with DTM-TS-style
release hysteresis (:class:`~repro.dtm.levels.LevelTracker`).
"""

from __future__ import annotations

from typing import Any

from repro.dtm.base import CORES, ControlDecision, DTMPolicy
from repro.dtm.levels import TRACKER_FIELD, LevelTracker
from repro.params.emergency import EmergencyLevels, PE1950_LEVELS, SIMULATION_LEVELS

#: The DVFS ladder position meaning "all cores stopped": the number of
#: operating points, 4 on every platform.
STOPPED_DVFS_LEVEL = 4


def ladder_decision(
    scheme: str, levels: EmergencyLevels, rung: int, cores: int, min_active: int
) -> ControlDecision:
    """The actuator state of one rung of ``scheme``'s ladder.

    ``scheme`` is "bw", "acg", "cdvfs" or "comb"; ``min_active`` bounds
    the gated core count from below on the acg and comb ladders (the
    servers keep one core per socket to use its L2, §5.2.2).
    """
    if scheme == "bw":
        cap = levels.bw_caps_bytes_per_s[rung]
        memory_on = cap is None or cap > 0.0
        return ControlDecision(
            memory_on=memory_on,
            bandwidth_cap_bytes_per_s=cap if memory_on else 0.0,
            active_cores=cores,
            emergency_level=rung,
            index=rung,
        )
    if scheme == "cdvfs":
        dvfs = levels.cdvfs_levels[rung]
        stopped = dvfs >= STOPPED_DVFS_LEVEL
        return ControlDecision(
            memory_on=not stopped,
            active_cores=0 if stopped else cores,
            dvfs_level=dvfs,
            emergency_level=rung,
            index=rung,
        )
    active = levels.acg_active_cores[rung]
    if active > 0:
        active = max(active, min_active)
    return ControlDecision(
        memory_on=active > 0,
        active_cores=min(active, cores),
        dvfs_level=levels.cdvfs_levels[rung] if scheme == "comb" else 0,
        emergency_level=rung,
        index=rung,
    )


class LadderPolicy(DTMPolicy):
    """A scheme that applies its ladder's rung for the emergency level.

    Subclasses name their ``scheme``; the constructor builds each rung's
    decision once, so a decision is one level lookup and one index.
    """

    scheme = ""
    STATE_FIELDS = (TRACKER_FIELD,)

    def __init__(
        self, levels: EmergencyLevels | None = None, cores: int = CORES, min_active: int = 0
    ) -> None:
        self._levels = levels if levels is not None else SIMULATION_LEVELS
        self._tracker = LevelTracker(self._levels)
        self._decisions = tuple(
            ladder_decision(self.scheme, self._levels, rung, cores, min_active)
            for rung in range(self._levels.level_count)
        )

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """The decision on the current emergency level's rung."""
        return self._decisions[self._tracker.level(reading)]

    def reset(self) -> None:
        """Clear the shutdown latch."""
        self._tracker.reset()


class DTMBW(LadderPolicy):
    """Bandwidth throttling by emergency level.

    Args:
        levels: emergency table with the bandwidth ladder.
        cores: core count reported in decisions (BW never gates cores —
            that is exactly why it wastes processor energy, §4.4.3).
    """

    name = "DTM-BW"
    scheme = "bw"

    def __init__(self, levels: EmergencyLevels | None = None, cores: int = CORES) -> None:
        super().__init__(levels, cores)


class DTMACG(LadderPolicy):
    """Adaptive core gating by emergency level.

    The policy decides how many cores stay active; the run that applies
    the decision picks which ones
    (:class:`~repro.core.simulator.Chapter4Strategy` rotates the gated
    slots round-robin every ``rotation_interval_s``, 100 ms by default).

    Args:
        levels: emergency table with the active-core ladder.
        cores: total core count.
        min_active: lower bound on active cores (Chapter 5 servers keep
            one core per socket alive to use its L2, §5.2.2).
    """

    name = "DTM-ACG"
    scheme = "acg"


class DTMCDVFS(LadderPolicy):
    """Coordinated DVFS by emergency level.

    Args:
        levels: emergency table with the DVFS ladder.
        cores: core count reported in decisions (all cores scale together).
    """

    name = "DTM-CDVFS"
    scheme = "cdvfs"

    def __init__(self, levels: EmergencyLevels | None = None, cores: int = CORES) -> None:
        super().__init__(levels, cores)


class DTMCOMB(LadderPolicy):
    """Combined gating + DVFS by emergency level (up to 5.4% faster than
    the better of ACG and CDVFS in the measured study).

    Args:
        levels: emergency table; the active-core and DVFS ladders are
            applied simultaneously (Table 5.1 bottom rows).
        cores: total core count.
        min_active: lower bound on active cores (one per socket on the
            servers).
    """

    name = "DTM-COMB"
    scheme = "comb"

    def __init__(
        self,
        levels: EmergencyLevels | None = None,
        cores: int = CORES,
        min_active: int = 2,
    ) -> None:
        super().__init__(
            levels if levels is not None else PE1950_LEVELS, cores, min_active
        )
