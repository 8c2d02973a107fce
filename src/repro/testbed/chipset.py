"""Intel 5000X chipset open-loop bandwidth throttling (§5.2.1).

The chipset caps the number of memory row activations in a window of
21504K bus cycles (66 ms at the 333 MHz bus).  With the close-page policy
every request is exactly one activation moving one cache line, so an
activation cap is a bandwidth cap:

``bandwidth = activations_per_window * line_bytes / window``

DTM-BW programs this cap per thermal running level; the other policies
arm it only at the highest emergency level as a worst-case safety net.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.units import CACHE_LINE_BYTES


class OpenLoopThrottle:
    """Activation-count cap expressed both ways (activations and GB/s)."""

    #: The window: 21504K bus cycles at 333 MHz (§5.2.1).
    WINDOW_S = 21504e3 / 333e6

    def __init__(self) -> None:
        self._window_s = self.WINDOW_S
        self._line_bytes = CACHE_LINE_BYTES
        self._max_activations: int | None = None

    def program_bandwidth(self, bytes_per_s: float | None) -> None:
        """Program the cap from a target bandwidth."""
        if bytes_per_s is None:
            self._max_activations = None
            return
        if bytes_per_s < 0:
            raise ConfigurationError("bandwidth cap must be non-negative")
        activations = int(bytes_per_s * self._window_s / self._line_bytes)
        self._max_activations = max(1, activations)

    def bandwidth_cap_bytes_per_s(self) -> float | None:
        """The effective bandwidth ceiling implied by the cap."""
        if self._max_activations is None:
            return None
        return self._max_activations * self._line_bytes / self._window_s
