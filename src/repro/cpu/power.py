"""Chip power as a function of DTM state.

Two models, matching the two evaluation platforms:

- :func:`simulated_chip_power_w` — the Table 4.4 state-based model for
  the simulated 4-core chip of Chapter 4.  Power depends only on the DTM
  state (active cores / DVFS level), because the paper prices each state
  from the Xeon data sheet rather than from activity.
- :func:`measured_chip_power_w` — the activity-based model for the Xeon
  5160 servers of Chapter 5, where stalled cores clock-gate themselves
  and ACG therefore saves little power (§5.4.4).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params.power_params import (
    MeasuredProcessorPower,
    SIMULATED_CPU_POWER,
    XEON_5160_POWER,
)


def simulated_chip_power_w(
    active_cores: int,
    dvfs_level: int,
    memory_on: bool,
) -> float:
    """Chip power of the simulated platform (Table 4.4).

    Args:
        active_cores: cores left running by gating.
        dvfs_level: DVFS ladder position (0 fastest; ``len(points)``
            = stopped).
        memory_on: with memory shut down every core stalls and the chip
            draws standby power (Table 4.4 row "0 cores" / "(-, 0)").

    Returns:
        Chip power in watts.

    The two control knobs compose: gated cores draw standby power, and the
    active cores draw the CDVFS per-core power of the current level — so
    DTM-COMB is priced consistently too.
    """
    t = SIMULATED_CPU_POWER
    if not memory_on:
        return t.standby_w
    if dvfs_level == len(t.operating_points):
        return t.standby_w
    if not 0 <= active_cores <= t.cores:
        raise ConfigurationError(f"invalid active core count {active_cores}")
    full_chip = t.cdvfs_power_at_level(dvfs_level)
    per_core_active = (full_chip - t.standby_w) / t.cores
    return t.standby_w + per_core_active * active_cores


def measured_chip_power_w(
    utilizations: list[float],
    dvfs_level: int,
    model: MeasuredProcessorPower | None = None,
) -> float:
    """Chip power of the Chapter 5 servers (activity-based).

    Args:
        utilizations: per-core activity in [0, 1] (retired-uop throughput
            relative to peak); gated or idle cores contribute 0.
        dvfs_level: Xeon 5160 DVFS ladder position (0 = 3.0 GHz).
        model: power model; defaults to the Xeon 5160 parameters.

    Returns:
        Combined power of both sockets in watts.
    """
    m = model if model is not None else XEON_5160_POWER
    return m.power_w(utilizations, dvfs_level)
