"""Thermal emergency levels and control ladders (Tables 4.3 and 5.1).

A DTM policy quantizes the measured AMB / DRAM temperatures into discrete
*thermal emergency levels* and maps each level to a control decision:
a bandwidth cap (DTM-BW), an active-core count (DTM-ACG), a DVFS ladder
position (DTM-CDVFS) or a combination (DTM-COMB).  This module stores the
level boundaries and decision ladders exactly as tabulated in the paper.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

from repro.engine.codec import Count, Float, ListOf, Optional, check_domain, domain
from repro.errors import ConfigurationError
from repro.units import gbps


def _levels(table: "EmergencyLevels") -> int:
    """One ladder entry per emergency level."""
    return table.level_count


@dataclass(frozen=True)
class EmergencyLevels:
    """Quantization of temperatures into emergency levels plus ladders.

    ``amb_thresholds_c`` is the ascending list of AMB temperature
    boundaries; a reading below the first threshold is level 0 (L1 in the
    paper's one-based naming), a reading at or above the last threshold is
    the highest level.  ``dram_thresholds_c`` plays the same role for the
    DRAM chips and may be empty when the platform's hot spot is always the
    AMB (Chapter 5 servers).

    The ladder tuples have one entry per level:

    - ``bw_caps_bytes_per_s``: memory throughput cap (``None`` = no limit,
      ``0.0`` = memory off).
    - ``acg_active_cores``: number of cores left running.
    - ``cdvfs_levels``: index into the processor's DVFS operating points,
      where ``len(points)`` means "all cores stopped".
    """

    amb_thresholds_c: tuple[float, ...] = domain(ListOf(Float()))
    dram_thresholds_c: tuple[float, ...] = domain(ListOf(Float()))
    bw_caps_bytes_per_s: tuple[float | None, ...] = domain(
        ListOf(Optional(Float(0.0)), length=_levels)
    )
    acg_active_cores: tuple[int, ...] = domain(ListOf(Count(), length=_levels))
    cdvfs_levels: tuple[int, ...] = domain(ListOf(Count(), length=_levels))
    #: AMB / DRAM thermal design points, degC.
    amb_tdp_c: float = domain(Float(), 110.0)
    dram_tdp_c: float = domain(Float(), 85.0)
    #: Thermal release points for hysteresis-style policies (DTM-TS), degC.
    amb_trp_c: float = domain(Float(), 109.0)
    dram_trp_c: float = domain(Float(), 84.0)

    def __post_init__(self) -> None:
        check_domain(self)
        for part, thresholds in (
            ("AMB", self.amb_thresholds_c),
            ("DRAM", self.dram_thresholds_c),
        ):
            if list(thresholds) != sorted(thresholds):
                raise ConfigurationError(f"{part} thresholds must be ascending")
        if self.dram_thresholds_c and len(self.dram_thresholds_c) != len(
            self.amb_thresholds_c
        ):
            raise ConfigurationError(
                "AMB and DRAM threshold lists must have equal length when both used"
            )
        if not self.amb_trp_c < self.amb_tdp_c:
            raise ConfigurationError("AMB TRP must be below the AMB TDP")
        if not self.dram_trp_c < self.dram_tdp_c:
            raise ConfigurationError("DRAM TRP must be below the DRAM TDP")

    @property
    def level_count(self) -> int:
        """Number of emergency levels (thresholds + 1)."""
        return len(self.amb_thresholds_c) + 1

    def amb_level(self, amb_temp_c: float) -> int:
        """Emergency level implied by the AMB temperature alone."""
        return bisect.bisect_right(self.amb_thresholds_c, amb_temp_c)

    def dram_level(self, dram_temp_c: float) -> int:
        """Emergency level implied by the DRAM temperature alone."""
        if not self.dram_thresholds_c:
            return 0
        return bisect.bisect_right(self.dram_thresholds_c, dram_temp_c)

    def level(self, amb_temp_c: float, dram_temp_c: float) -> int:
        """Overall emergency level: the worse of the AMB and DRAM levels."""
        return max(self.amb_level(amb_temp_c), self.dram_level(dram_temp_c))

    def with_amb_tdp(self, tdp_c: float) -> "EmergencyLevels":
        """Rebuild the table around a different AMB TDP (§5.4.5).

        Every AMB threshold is shifted by the TDP delta, following the
        paper's rationale of stepping levels down from the design point.
        """
        delta = tdp_c - self.amb_tdp_c
        return replace(
            self,
            amb_thresholds_c=tuple(t + delta for t in self.amb_thresholds_c),
            amb_tdp_c=tdp_c,
            amb_trp_c=self.amb_trp_c + delta,
        )


#: Table 4.3 — five levels (L1..L5) for the simulated FBDIMM platform.
#: AMB TDP 110 degC / DRAM TDP 85 degC; DTM scale 25%.
SIMULATION_LEVELS = EmergencyLevels(
    amb_thresholds_c=(108.0, 109.0, 109.5, 110.0),
    dram_thresholds_c=(83.0, 84.0, 84.5, 85.0),
    bw_caps_bytes_per_s=(None, gbps(19.2), gbps(12.8), gbps(6.4), 0.0),
    acg_active_cores=(4, 3, 2, 1, 0),
    cdvfs_levels=(0, 1, 2, 3, 4),
    amb_tdp_c=110.0,
    dram_tdp_c=85.0,
    amb_trp_c=109.0,
    dram_trp_c=84.0,
)

#: Table 5.1, PE1950 rows — four levels, artificial AMB TDP 90 degC.
#: The hot spot on both servers is always the AMB, so no DRAM thresholds.
PE1950_LEVELS = EmergencyLevels(
    amb_thresholds_c=(76.0, 80.0, 84.0),
    dram_thresholds_c=(),
    bw_caps_bytes_per_s=(None, gbps(4.0), gbps(3.0), gbps(2.0)),
    acg_active_cores=(4, 3, 2, 2),
    cdvfs_levels=(0, 1, 2, 3),
    amb_tdp_c=90.0,
    dram_tdp_c=85.0,
    amb_trp_c=84.0,
    dram_trp_c=84.0,
)

#: Table 5.1, SR1500AL rows — four levels, conservative AMB TDP 100 degC.
SR1500AL_LEVELS = EmergencyLevels(
    amb_thresholds_c=(86.0, 90.0, 94.0),
    dram_thresholds_c=(),
    bw_caps_bytes_per_s=(None, gbps(5.0), gbps(4.0), gbps(3.0)),
    acg_active_cores=(4, 3, 2, 2),
    cdvfs_levels=(0, 1, 2, 3),
    amb_tdp_c=100.0,
    dram_tdp_c=85.0,
    amb_trp_c=94.0,
    dram_trp_c=84.0,
)
