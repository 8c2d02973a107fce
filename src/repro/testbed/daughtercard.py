"""The sensor daughter card of the SR1500AL (§5.3.1).

The instrumented server routes analog power/thermal sensors through A/D
converters on a custom daughter card, sampled every 10 ms by a
micro-controller and logged by a user-space application.  The model
below reproduces the measurement chain: named channels, a sampling
period, bounded log buffers, and the occasional noise spikes that the
paper's methodology removes by discarding the hottest 0.5% of samples
(§5.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.thermal.sensors import ThermalSensor

#: Per-sample chance of a noise spike on a thermal channel (visible in
#: Fig. 5.4's raw curves); the first channel's noise draws from seed 0,
#: the next from seed 1, and so on.
SPIKE_PROBABILITY = 0.002


@dataclass
class SensorLog:
    """Bounded sample log of one channel."""

    times_s: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time_s: float, value: float) -> None:
        """Record one sample."""
        self.times_s.append(time_s)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times_s)


class DaughterCard:
    """Multi-channel sampled sensor logger.

    Args:
        sampling_period_s: 10 ms in the paper's experiments.
    """

    def __init__(self, sampling_period_s: float = 0.010) -> None:
        if sampling_period_s <= 0:
            raise ConfigurationError("sampling period must be positive")
        self._period_s = sampling_period_s
        self._sensors: dict[str, ThermalSensor] = {}
        self._logs: dict[str, SensorLog] = {}
        self._last_sample_s: float | None = None

    def add_channel(self, name: str, noisy: bool = True) -> None:
        """Register a sensor channel."""
        if name in self._sensors:
            raise ConfigurationError(f"channel {name!r} already exists")
        self._sensors[name] = ThermalSensor(
            period_s=0.0,
            quantization_c=0.0,
            spike_probability=SPIKE_PROBABILITY if noisy else 0.0,
            spike_magnitude_c=8.0,
            seed=len(self._sensors),
        )
        self._logs[name] = SensorLog()

    @property
    def channels(self) -> list[str]:
        """Registered channel names."""
        return sorted(self._sensors)

    def sample(self, now_s: float, true_values: dict[str, float]) -> dict[str, float]:
        """Sample every channel if the period elapsed; returns readings.

        Channels missing from ``true_values`` are skipped.
        """
        due = (
            self._last_sample_s is None
            or now_s - self._last_sample_s >= self._period_s - 1e-12
        )
        readings: dict[str, float] = {}
        if not due:
            return readings
        self._last_sample_s = now_s
        for name, value in true_values.items():
            sensor = self._sensors.get(name)
            if sensor is None:
                continue
            reading = sensor.read(value, now_s)
            self._logs[name].append(now_s, reading)
            readings[name] = reading
        return readings

    def log(self, name: str) -> SensorLog:
        """The recorded log of one channel."""
        try:
            return self._logs[name]
        except KeyError:
            raise ConfigurationError(f"unknown channel {name!r}") from None

    def reset(self) -> None:
        """Clear logs and sampling state."""
        for name in self._sensors:
            self._logs[name] = SensorLog()
            self._sensors[name].reset()
        self._last_sample_s = None
