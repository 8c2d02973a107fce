"""First-order thermal-RC dynamics (Eq. 3.5).

The paper treats each temperature like the voltage on an RC circuit:

``T(t + dt) = T(t) + (T_stable - T(t)) * (1 - exp(-dt / tau))``

where ``tau`` is the time for the temperature difference to shrink by a
factor of e.  The model deliberately omits a leakage-temperature feedback
loop: DRAM/AMB leakage was measured to rise only ~2% with heating (§3.4).
"""

from __future__ import annotations

import math

from repro.errors import ThermalModelError


def exponential_step(current_c: float, stable_c: float, dt_s: float, tau_s: float) -> float:
    """One Eq. 3.5 update toward the stable temperature.

    Args:
        current_c: temperature now, degC.
        stable_c: stable (asymptotic) temperature for the present power, degC.
        dt_s: time step, seconds.
        tau_s: RC time constant, seconds.

    Returns:
        Temperature after ``dt_s`` seconds, degC.
    """
    if dt_s < 0:
        raise ThermalModelError(f"time step must be non-negative, got {dt_s}")
    if tau_s <= 0:
        raise ThermalModelError(f"tau must be positive, got {tau_s}")
    return current_c + (stable_c - current_c) * (1.0 - math.exp(-dt_s / tau_s))


class RCNode:
    """A single thermal node with first-order dynamics.

    The node tracks its own temperature; callers supply the stable
    temperature for the current power each step.  This is the building
    block for the AMB, DRAM and ambient nodes of the two thermal models.
    """

    def __init__(self, tau_s: float, initial_c: float) -> None:
        if tau_s <= 0:
            raise ThermalModelError(f"tau must be positive, got {tau_s}")
        self._tau_s = tau_s
        self._temperature_c = initial_c

    @property
    def temperature_c(self) -> float:
        """Current node temperature, degC."""
        return self._temperature_c

    def step(self, stable_c: float, dt_s: float) -> float:
        """Advance ``dt_s`` seconds toward ``stable_c``; returns the new temp."""
        self._temperature_c = exponential_step(
            self._temperature_c, stable_c, dt_s, self._tau_s
        )
        return self._temperature_c

    def reset(self, temperature_c: float) -> None:
        """Force the node to a temperature (e.g. cold start at ambient)."""
        self._temperature_c = temperature_c
