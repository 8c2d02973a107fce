"""DTM policy interface and control vocabulary.

Every policy consumes a thermal reading (AMB and DRAM temperatures) once
per DTM interval and produces a :class:`ControlDecision` — the full
actuator state: memory on/off, bandwidth cap, active core count and DVFS
level.  Schemes that only use one actuator leave the others at their
permissive defaults, so the second-level simulator can apply any
decision uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

#: The core count of the Table 4.1 platform, which the Chapter 4
#: schemes report.
CORES = 4


@dataclass(frozen=True)
class ThermalReading:
    """Sensor temperatures delivered to the policy, degC."""

    amb_c: float
    dram_c: float


@dataclass(frozen=True)
class ControlDecision:
    """One DTM interval's actuator state.

    Attributes:
        memory_on: all memory transactions enabled.
        bandwidth_cap_bytes_per_s: memory throughput ceiling
            (``None`` = unlimited; ignored when memory is off).
        active_cores: cores left running by gating.
        dvfs_level: DVFS ladder position (0 = fastest,
            ``n_points`` = stopped).
        emergency_level: the quantized thermal emergency level that
            produced this decision (for logging / analysis).
        index: the decision's number among its policy's, the
            simulator's window-cache key; not compared or hashed.
    """

    memory_on: bool = True
    bandwidth_cap_bytes_per_s: float | None = None
    active_cores: int = CORES
    dvfs_level: int = 0
    emergency_level: int = 0
    index: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.bandwidth_cap_bytes_per_s is not None and self.bandwidth_cap_bytes_per_s < 0:
            raise ConfigurationError("bandwidth cap must be non-negative or None")
        if self.active_cores < 0:
            raise ConfigurationError("active core count must be non-negative")
        if self.dvfs_level < 0:
            raise ConfigurationError("DVFS level must be non-negative")


class DTMPolicy(abc.ABC):
    """A dynamic thermal management policy.

    Policies are stateful (hysteresis, fairness rotation, PID integrals);
    :meth:`reset` restores the initial state between experiment runs.
    """

    #: Human-readable scheme name ("DTM-ACG", ...).
    name: str = "DTM"
    #: Runtime state for engine checkpoints (hysteresis latches, PID
    #: integrals, rotation counters; see :mod:`repro.engine.codec`).
    #: It must round-trip bit-exactly: a restored policy produces the
    #: same decision stream as one that never paused.
    STATE_FIELDS: tuple = ()

    @abc.abstractmethod
    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Produce the actuator state for the next interval: one of the
        decisions built in the constructor, each with its own ``index``.

        ``reading`` is anything with ``amb_c``/``dram_c`` attributes
        (degC): a :class:`ThermalReading`, or the engine's last
        :class:`~repro.core.kernel.MemSpotSample`, which the simulators
        pass as is instead of building a reading per window.
        """

    def reset(self) -> None:
        """Restore initial policy state (default: stateless)."""


class NoLimitPolicy(DTMPolicy):
    """The ideal system without any thermal limit (the paper's baseline)."""

    name = "No-limit"

    def __init__(self, cores: int = CORES) -> None:
        self._decision = ControlDecision(active_cores=cores)

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Always full speed, regardless of temperature."""
        return self._decision
