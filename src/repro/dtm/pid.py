"""PID formal controller (Eq. 4.1, §4.2.3, §4.3.4).

``m(t) = Kc * (e(t) + KI * int(e dt) + KD * de/dt)``

with ``e(t)`` the target-minus-measured temperature error.  Two
anti-windup measures from the paper:

- the integral factor only turns on once the temperature exceeds an
  enable threshold (109.0 degC AMB / 84.0 degC DRAM by default), and
- the integral freezes while the control output saturates the actuator,
  so the controller responds quickly when the temperature turns around.

The paper's tuned constants: Kc = 10.4, KI = 180.24, KD = 0.001 for the
AMB controller and Kc = 12.4, KI = 155.12, KD = 0.001 for the DRAM
controller, with targets 109.8 and 84.8 degC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.codec import Field, Flag, Float, Optional
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PIDGains:
    """Proportional / integral / differential constants of Eq. 4.1."""

    kc: float
    ki: float
    kd: float

    def __post_init__(self) -> None:
        if self.kc <= 0:
            raise ConfigurationError("Kc must be positive")
        if self.ki < 0 or self.kd < 0:
            raise ConfigurationError("KI and KD must be non-negative")


#: §4.3.4 tuned constants.
AMB_GAINS = PIDGains(kc=10.4, ki=180.24, kd=0.001)
DRAM_GAINS = PIDGains(kc=12.4, ki=155.12, kd=0.001)

#: §4.3.4 target temperatures, degC.
AMB_TARGET_C = 109.8
DRAM_TARGET_C = 84.8

#: §4.3.4 integral-enable thresholds, degC.
AMB_INTEGRAL_ENABLE_C = 109.0
DRAM_INTEGRAL_ENABLE_C = 84.0

#: Actuator saturation bounds on m(t).
OUTPUT_MIN = -5.0
OUTPUT_MAX = 5.0


class PIDController:
    """Discrete-time PID with integral-enable threshold and freeze-on-saturation.

    Args:
        gains: the Eq. 4.1 constants.
        target_c: temperature the controller regulates toward.
        integral_enable_c: integral accumulates only while the measured
            temperature is at or above this value (avoids the saturation
            effect of winding up during the long cold approach, §4.3.4).

    The output saturates at :data:`OUTPUT_MIN` / :data:`OUTPUT_MAX`.
    """

    STATE_FIELDS = (
        Field("integral", "_integral", Float(), 0.0),
        Field("previous_error", "_previous_error", Optional(Float()), None),
        Field("saturated_low", "_saturated_low", Flag(), False),
        Field("saturated_high", "_saturated_high", Flag(), False),
    )

    def __init__(
        self,
        gains: PIDGains,
        target_c: float,
        integral_enable_c: float,
    ) -> None:
        self._gains = gains
        self._target_c = target_c
        self._integral_enable_c = integral_enable_c
        self._output_min = OUTPUT_MIN
        self._output_max = OUTPUT_MAX
        self._integral = 0.0
        self._previous_error: float | None = None
        self._saturated_low = False
        self._saturated_high = False

    @property
    def integral(self) -> float:
        """Accumulated integral term (for tests)."""
        return self._integral

    def update(self, measured_c: float, dt_s: float) -> float:
        """One controller step; returns the saturated output m(t)."""
        if dt_s <= 0:
            raise ConfigurationError("dt must be positive")
        error = self._target_c - measured_c
        integral_on = measured_c >= self._integral_enable_c
        if integral_on:
            # Freeze the integral while the output saturates in the
            # direction the error keeps pushing (anti-windup).
            pushing_low = error < 0 and self._saturated_low
            pushing_high = error > 0 and self._saturated_high
            if not (pushing_low or pushing_high):
                self._integral += error * dt_s
        else:
            self._integral = 0.0
        if self._previous_error is None:
            derivative = 0.0
        else:
            derivative = (error - self._previous_error) / dt_s
        self._previous_error = error
        g = self._gains
        raw = g.kc * (error + g.ki * self._integral + g.kd * derivative)
        # ``min(output_max, max(output_min, raw))`` as its compares.
        output = raw if raw > self._output_min else self._output_min
        if not output < self._output_max:
            output = self._output_max
        self._saturated_low = output <= self._output_min
        self._saturated_high = output >= self._output_max
        return output

    def normalized(self, output: float) -> float:
        """Map a saturated output to a performance fraction in [0, 1]."""
        span = self._output_max - self._output_min
        return (output - self._output_min) / span

    def reset(self) -> None:
        """Clear integral, derivative history and saturation flags."""
        self._integral = 0.0
        self._previous_error = None
        self._saturated_low = False
        self._saturated_high = False
