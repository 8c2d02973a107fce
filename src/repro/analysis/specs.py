"""Chapter 4/5 run specs and runners for the campaign engine.

Programmatic users should prefer the stable client API in
:mod:`repro.api`.

Every figure bench needs the same underlying runs (e.g. the no-limit
baseline of every workload).  This module defines the two spec kinds —
``ch4`` (two-level simulation) and ``ch5`` (server measurement) — and
registers their runners with :mod:`repro.campaign`, which provides the
caching, grid expansion, and parallel execution:

- a process-wide **memo** of decoded results so one pytest session
  never repeats a run, and
- an **on-disk JSON cache** under ``.exp_cache/`` keyed by the
  spec hash, so tests and benches across sessions reuse results.
  Temperature traces are persisted alongside the scalars.

``REPRO_BENCH_SCALE`` scales the batch length (copies of each app; the
paper uses 50, the default here is 2 — shapes are scale-invariant).
``REPRO_CACHE=0`` disables the disk cache; ``REPRO_CACHE_DIR`` moves it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, ClassVar

from repro.campaign import register_runner, run, spec_key
from repro.core.results import RunResult
from repro.core.simulator import (
    DTM_OVERHEAD_S,
    DUTY_CYCLE,
    POSITIVE,
    SimulationConfig,
    TwoLevelSimulator,
    duty_windows,
)
from repro.core.windowmodel import MemoryEnvelope, WindowModel
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMCOMB, DTMTS, DTMPolicy, PIDPolicy
from repro.dtm.base import NoLimitPolicy
from repro.engine.codec import (
    Count,
    Flag,
    Float,
    Optional,
    Text,
    check_domain,
    decode_record,
    domain,
    state_dict,
)
from repro.errors import ConfigurationError
from repro.params.emergency import SIMULATION_LEVELS
from repro.params.thermal_params import (
    COOLING_CONFIGS,
    INTEGRATED_AMBIENT,
    ISOLATED_AMBIENT,
)
from repro.testbed.platforms import PLATFORMS, ServerPlatform
from repro.workloads.mixes import MIX

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.testbed.performance import ServerWindowModel
    from repro.testbed.runner import ServerRunResult

__all__ = [
    "AMBIENT_MODELS",
    "CHAPTER4_POLICIES",
    "CHAPTER4_POLICY_CHOICES",
    "CHAPTER5_POLICIES",
    "Chapter4Spec",
    "Chapter5Spec",
    "bench_copies",
    "make_chapter4_policy",
    "make_chapter5_policy",
    "run_chapter4",
    "run_chapter5",
]


def bench_copies() -> int:
    """Batch copies per application, from ``REPRO_BENCH_SCALE`` (2 when
    unset)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "2")
    try:
        copies = int(raw)
    except ValueError:
        raise ConfigurationError(f"REPRO_BENCH_SCALE must be an integer, got {raw!r}")
    if copies < 1:
        raise ConfigurationError("REPRO_BENCH_SCALE must be >= 1")
    return copies


# ---------------------------------------------------------------------------
# Chapter 4 (simulation) experiments
# ---------------------------------------------------------------------------

#: Paper presentation order of the simulation schemes.
CHAPTER4_POLICIES = (
    "no-limit",
    "ts",
    "bw",
    "acg",
    "cdvfs",
    "bw+pid",
    "acg+pid",
    "cdvfs+pid",
)

#: Every policy name ``make_chapter4_policy`` accepts (CLI choices).
CHAPTER4_POLICY_CHOICES = CHAPTER4_POLICIES + ("comb",)


#: The Table 3.3 ambient models, by their spec name.
AMBIENT_MODELS = {"isolated": ISOLATED_AMBIENT, "integrated": INTEGRATED_AMBIENT}

_COPIES = Count(minimum=1)


@dataclass(frozen=True)
class Chapter4Spec:
    """One Chapter 4 simulation run; a value outside a field's declared
    domain is refused at construction."""

    kind: ClassVar[str] = "ch4"
    #: Presentation-only fields left out of the cache key: the same
    #: physical run under different scenario labels shares one entry.
    KEY_EXCLUDED_FIELDS: ClassVar[tuple[str, ...]] = ("scenario",)

    mix: str = domain(MIX, "W1")
    policy: str = domain(Text(CHAPTER4_POLICY_CHOICES, noun="ch4 policy"), "ts")
    cooling: str = domain(
        Text(tuple(COOLING_CONFIGS), noun="cooling"), "AOHS_1.5"
    )
    #: "isolated" or "integrated" (Table 3.3 row).
    ambient: str = domain(
        Text(tuple(AMBIENT_MODELS), noun="ambient model"), "isolated"
    )
    copies: int = domain(_COPIES, 2)
    #: Longer than the fixed DTM overhead it pays each interval.
    dtm_interval_s: float = domain(Float(DTM_OVERHEAD_S, strict=True), 0.010)
    #: CPU-memory interaction override (§4.5.2 sweeps 1.0 / 1.5 / 2.0).
    interaction: float | None = domain(Optional(Float(0.0)), None)
    #: DTM-TS release point overrides (Fig. 4.2 sweeps): below the
    #: table's TDP; every other policy ignores them.
    amb_trp_c: float | None = domain(Optional(Float()), None)
    dram_trp_c: float | None = domain(Optional(Float()), None)
    record_trace: bool = domain(Flag(), False)
    #: Name of the scenario that produced this spec (None for ad-hoc runs).
    scenario: str | None = domain(Optional(Text()), None)
    #: Machine-room inlet shift, degC (scenario knob; 0 = Table 3.3).
    inlet_delta_c: float = domain(Float(), 0.0)
    #: Platform shape overrides (Table 4.1 uses 4 channels x 4 DIMMs).
    channels: int = domain(Count(minimum=1), 4)
    dimms_per_channel: int = domain(Count(minimum=1), 4)
    #: Traffic shape: the cores run ``duty_cycle`` of each period.
    duty_cycle: float = domain(DUTY_CYCLE, 1.0)
    duty_period_s: float = domain(POSITIVE, 0.1)
    #: Scales the memory envelope's peak bandwidth (narrow/wide pipes).
    bandwidth_scale: float = domain(POSITIVE, 1.0)

    def __post_init__(self) -> None:
        check_domain(self)
        duty_windows(self.duty_cycle, self.duty_period_s, self.dtm_interval_s)
        for name, trp_c, tdp_c in (
            ("amb_trp_c", self.amb_trp_c, SIMULATION_LEVELS.amb_tdp_c),
            ("dram_trp_c", self.dram_trp_c, SIMULATION_LEVELS.dram_tdp_c),
        ):
            if self.policy == "ts" and trp_c is not None and not trp_c < tdp_c:
                raise ConfigurationError(f"{name} must be below {tdp_c}, got {trp_c!r}")

    def key(self) -> str:
        """Stable hash key of this spec."""
        return spec_key(self)


def make_chapter4_policy(
    name: str,
    amb_trp_c: float | None = None,
    dram_trp_c: float | None = None,
) -> DTMPolicy:
    """Construct a Chapter 4 policy by short name, on the Table 4.3
    levels."""
    levels = SIMULATION_LEVELS
    if name == "no-limit":
        return NoLimitPolicy()
    if name == "ts":
        return DTMTS(levels, amb_trp_c=amb_trp_c, dram_trp_c=dram_trp_c)
    if name == "bw":
        return DTMBW(levels)
    if name == "acg":
        return DTMACG(levels)
    if name == "cdvfs":
        return DTMCDVFS(levels)
    if name == "comb":
        return DTMCOMB(levels, min_active=1)
    if name.endswith("+pid"):
        scheme = name.removesuffix("+pid")
        return PIDPolicy(scheme)
    raise ConfigurationError(f"unknown Chapter 4 policy {name!r}")


#: Shared window models (memoized level-1 evaluations), per process,
#: keyed by the memory envelope they were built for (None = default).
_window_models: dict[MemoryEnvelope | None, WindowModel] = {}
_server_models: dict[str, ServerWindowModel] = {}


def _shared_window_model(envelope: MemoryEnvelope | None = None) -> WindowModel:
    model = _window_models.get(envelope)
    if model is None:
        model = WindowModel(envelope=envelope)
        _window_models[envelope] = model
    return model


def _chapter4_engine(spec: Chapter4Spec):
    """A stepping engine for one Chapter 4 spec (checkpoint/slice surface)."""
    ambient = AMBIENT_MODELS[spec.ambient]
    if spec.interaction is not None:
        ambient = ambient.with_interaction(spec.interaction)
    if spec.inlet_delta_c != 0.0:
        ambient = ambient.with_inlet_delta(spec.inlet_delta_c)
    envelope: MemoryEnvelope | None = None
    if spec.bandwidth_scale != 1.0:
        base = MemoryEnvelope()
        envelope = replace(
            base,
            peak_bandwidth_bytes_per_s=(
                base.peak_bandwidth_bytes_per_s * spec.bandwidth_scale
            ),
        )
    config = SimulationConfig(
        mix_name=spec.mix,
        copies=spec.copies,
        cooling=COOLING_CONFIGS[spec.cooling],
        ambient=ambient,
        dtm_interval_s=spec.dtm_interval_s,
        record_trace=spec.record_trace,
        physical_channels=spec.channels,
        dimms_per_channel=spec.dimms_per_channel,
        duty_cycle=spec.duty_cycle,
        duty_period_s=spec.duty_period_s,
        envelope=envelope if envelope is not None else MemoryEnvelope(),
    )
    policy = make_chapter4_policy(
        spec.policy, amb_trp_c=spec.amb_trp_c, dram_trp_c=spec.dram_trp_c
    )
    simulator = TwoLevelSimulator(
        config, policy, window_model=_shared_window_model(envelope)
    )
    return simulator.engine()


def run_chapter4(spec: Chapter4Spec) -> RunResult:
    """Run (or recall) one Chapter 4 experiment through the engine."""
    return run(spec)


# ---------------------------------------------------------------------------
# Chapter 5 (testbed) experiments
# ---------------------------------------------------------------------------

#: Paper presentation order of the measured policies.
CHAPTER5_POLICIES = ("no-limit", "bw", "acg", "cdvfs", "comb")


def _operating_points(spec: "Chapter5Spec") -> int:
    """The DVFS ladder length of the spec's platform."""
    return len(PLATFORMS[spec.platform].cpu_power.operating_points)


@dataclass(frozen=True)
class Chapter5Spec:
    """One Chapter 5 server measurement; a value outside a field's
    declared domain is refused at construction."""

    kind: ClassVar[str] = "ch5"
    #: Presentation-only fields left out of the cache key (see ch4).
    KEY_EXCLUDED_FIELDS: ClassVar[tuple[str, ...]] = ("scenario",)

    platform: str = domain(Text(tuple(PLATFORMS), noun="platform"), "PE1950")
    mix: str = domain(MIX, "W1")
    policy: str = domain(Text(CHAPTER5_POLICIES, noun="ch5 policy"), "bw")
    copies: int = domain(_COPIES, 2)
    time_slice_s: float | None = domain(Optional(POSITIVE), None)
    ambient_override_c: float | None = domain(Optional(Float()), None)
    amb_tdp_c: float | None = domain(Optional(Float()), None)
    base_frequency_level: int = domain(Count(limit=_operating_points), 0)
    #: Name of the scenario that produced this spec (None for ad-hoc runs).
    scenario: str | None = domain(Optional(Text()), None)

    __post_init__ = check_domain

    def key(self) -> str:
        """Stable hash key of this spec."""
        return spec_key(self)


def _platform_for(spec: Chapter5Spec) -> ServerPlatform:
    base = PLATFORMS[spec.platform]
    if spec.amb_tdp_c is not None:
        return base.with_levels(base.levels.with_amb_tdp(spec.amb_tdp_c))
    return base


def make_chapter5_policy(name: str, platform: ServerPlatform) -> DTMPolicy:
    """Construct a Chapter 5 policy by short name (min one core/socket)."""
    if name == "no-limit":
        return NoLimitPolicy(cores=platform.total_cores)
    if name == "bw":
        return DTMBW(platform.levels, cores=platform.total_cores)
    if name == "acg":
        return DTMACG(platform.levels, cores=platform.total_cores, min_active=2)
    if name == "cdvfs":
        return DTMCDVFS(platform.levels, cores=platform.total_cores)
    if name == "comb":
        return DTMCOMB(platform.levels, cores=platform.total_cores, min_active=2)
    raise ConfigurationError(f"unknown Chapter 5 policy {name!r}")


def _chapter5_engine(spec: Chapter5Spec):
    """A stepping engine for one Chapter 5 spec (checkpoint/slice surface).

    The testbed simulator loads here, not with this module, so a
    Chapter 4 run never imports it.
    """
    from repro.testbed.performance import ServerWindowModel
    from repro.testbed.runner import ServerSimulator

    platform = _platform_for(spec)
    model_key = f"{spec.platform}|{spec.amb_tdp_c}"
    model = _server_models.get(model_key)
    if model is None:
        model = ServerWindowModel(platform)
        _server_models[model_key] = model
    policy = make_chapter5_policy(spec.policy, platform)
    simulator = ServerSimulator(
        platform,
        policy,
        spec.mix,
        copies=spec.copies,
        time_slice_s=spec.time_slice_s,
        ambient_override_c=spec.ambient_override_c,
        window_model=model,
        base_frequency_level=spec.base_frequency_level,
    )
    return simulator.engine()


def run_chapter5(spec: Chapter5Spec) -> ServerRunResult:
    """Run (or recall) one Chapter 5 experiment through the engine."""
    return run(spec)


# ---------------------------------------------------------------------------
# Result payloads: each result's declared fields, through the codec
# ---------------------------------------------------------------------------


def _decode_server_result(raw: dict) -> ServerRunResult:
    """A Chapter 5 payload's result (the testbed runner loads on first
    use)."""
    from repro.testbed.runner import ServerRunResult

    return decode_record(ServerRunResult, raw, "ch5 result")


register_runner(
    "ch4",
    _chapter4_engine,
    encode=state_dict,
    decode=partial(decode_record, RunResult, what="ch4 result"),
)
register_runner(
    "ch5",
    _chapter5_engine,
    encode=state_dict,
    decode=_decode_server_result,
)
