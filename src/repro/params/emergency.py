"""Thermal emergency levels and control ladders (Tables 4.3 and 5.1).

A DTM policy quantizes the measured AMB / DRAM temperatures into discrete
*thermal emergency levels* and maps each level to a control decision:
a bandwidth cap (DTM-BW), an active-core count (DTM-ACG), a DVFS ladder
position (DTM-CDVFS) or a combination (DTM-COMB).  This module stores the
level boundaries and decision ladders exactly as tabulated in the paper.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import gbps


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

    amb_thresholds_c: tuple[float, ...]
    dram_thresholds_c: tuple[float, ...]
    bw_caps_bytes_per_s: tuple[float | None, ...]
    acg_active_cores: tuple[int, ...]
    cdvfs_levels: tuple[int, ...]
    #: AMB / DRAM thermal design points, degC.
    amb_tdp_c: float = 110.0
    dram_tdp_c: float = 85.0
    #: Thermal release points for hysteresis-style policies (DTM-TS), degC.
    amb_trp_c: float = 109.0
    dram_trp_c: float = 84.0

    def __post_init__(self) -> None:
        levels = self.level_count
        for name, ladder in (
            ("bw_caps_bytes_per_s", self.bw_caps_bytes_per_s),
            ("acg_active_cores", self.acg_active_cores),
            ("cdvfs_levels", self.cdvfs_levels),
        ):
            if len(ladder) != levels:
                raise ConfigurationError(
                    f"{name} must have {levels} entries, got {len(ladder)}"
                )
        if list(self.amb_thresholds_c) != sorted(self.amb_thresholds_c):
            raise ConfigurationError("AMB thresholds must be ascending")
        if list(self.dram_thresholds_c) != sorted(self.dram_thresholds_c):
            raise ConfigurationError("DRAM thresholds must be ascending")
        if self.dram_thresholds_c and len(self.dram_thresholds_c) != len(
            self.amb_thresholds_c
        ):
            raise ConfigurationError(
                "AMB and DRAM threshold lists must have equal length when both used"
            )
        for name in ("amb_thresholds_c", "dram_thresholds_c"):
            if not all(math.isfinite(t) for t in getattr(self, name)):
                raise ConfigurationError(f"{name} must all be finite")
        for part, trp, tdp in (
            ("AMB", self.amb_trp_c, self.amb_tdp_c),
            ("DRAM", self.dram_trp_c, self.dram_tdp_c),
        ):
            if not (math.isfinite(trp) and math.isfinite(tdp)):
                raise ConfigurationError(
                    f"{part} TRP and TDP must be finite, got {trp} and {tdp}"
                )
            if not trp < tdp:
                raise ConfigurationError(f"{part} TRP must be below the {part} TDP")

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
        return EmergencyLevels(
            amb_thresholds_c=tuple(t + delta for t in self.amb_thresholds_c),
            dram_thresholds_c=self.dram_thresholds_c,
            bw_caps_bytes_per_s=self.bw_caps_bytes_per_s,
            acg_active_cores=self.acg_active_cores,
            cdvfs_levels=self.cdvfs_levels,
            amb_tdp_c=tdp_c,
            dram_tdp_c=self.dram_tdp_c,
            amb_trp_c=self.amb_trp_c + delta,
            dram_trp_c=self.dram_trp_c,
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
