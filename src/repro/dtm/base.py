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
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThermalReading:
    """Sensor temperatures delivered to the policy, degC."""

    amb_c: float
    dram_c: float

    def hotter(self, other: "ThermalReading") -> bool:
        """Whether either component exceeds the other reading's."""
        return self.amb_c > other.amb_c or self.dram_c > other.dram_c


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
    """

    memory_on: bool = True
    bandwidth_cap_bytes_per_s: float | None = None
    active_cores: int = 4
    dvfs_level: int = 0
    emergency_level: int = 0

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
    Each policy writes its rule once, in :meth:`decide_values`; the
    per-reading :meth:`decide` delegates to it.
    """

    #: Human-readable scheme name ("DTM-ACG", ...).
    name: str = "DTM"

    @abc.abstractmethod
    def decide_values(
        self, amb_c: float, dram_c: float, dt_s: float
    ) -> ControlDecision:
        """Produce the actuator state for the next interval from bare
        AMB/DRAM temperatures, degC."""

    def decide(self, reading: Any, dt_s: float) -> ControlDecision:
        """Produce the actuator state for the next interval.

        ``reading`` is anything with ``amb_c``/``dram_c`` attributes: a
        :class:`ThermalReading`, or the engine's last
        :class:`~repro.core.memspot.MemSpotSample`, which the simulators
        pass as is instead of building a reading per window.
        """
        return self.decide_values(reading.amb_c, reading.dram_c, dt_s)

    def reset(self) -> None:
        """Restore initial policy state (default: stateless)."""

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable runtime state (hysteresis latches, PID
        integrals, rotation counters) for engine checkpoints.

        Stateless policies return ``{}``.  The dict must round-trip
        through :meth:`load_state_dict` bit-exactly: a restored policy
        produces the same decision stream as one that never paused.
        """
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore runtime state captured by :meth:`state_dict`."""


def _decision_memo(policy: DTMPolicy) -> dict:
    """The per-instance cache of frozen decisions.

    A policy emits very few *distinct* decisions (one per ladder rung /
    latch state); :meth:`DTMPolicy.decide_values` implementations reuse
    the frozen :class:`ControlDecision` objects instead of validating a
    new one per window.  Lazy so the concrete policies' constructors
    stay untouched.
    """
    memo = getattr(policy, "_decision_cache", None)
    if memo is None:
        memo = policy._decision_cache = {}
    return memo


class NoLimitPolicy(DTMPolicy):
    """The ideal system without any thermal limit (the paper's baseline)."""

    name = "No-limit"

    def __init__(self, cores: int = 4) -> None:
        self._cores = cores

    def decide_values(
        self, amb_c: float, dram_c: float, dt_s: float
    ) -> ControlDecision:
        """Always full speed, regardless of temperature."""
        memo = _decision_memo(self)
        decision = memo.get(None)
        if decision is None:
            decision = memo[None] = ControlDecision(active_cores=self._cores)
        return decision
