"""The :class:`Scenario` dataclass and the scenario registry.

A scenario is the *single* vocabulary for naming a run anywhere in the
repo: it composes a workload profile (mix), a DTM policy, a thermal
model (cooling column + ambient row, or a Chapter 5 server platform),
platform-shape parameters (channels, chain depth) and a traffic shape
(duty cycle, bandwidth scaling) into one declarative, frozen object.
``Scenario.spec()`` lowers it to the campaign engine's
:class:`~repro.analysis.specs.Chapter4Spec` /
:class:`~repro.analysis.specs.Chapter5Spec`, which is how every
entry point — the CLI, the campaign grids, the figure benches — actually
launches it (with caching, dedup, and parallelism for free).

The registry holds the named library of :mod:`repro.scenarios.library`;
:func:`grid_scenario` builds canonical *unregistered* scenarios for
ad-hoc cells (CLI one-offs, campaign grid points) so that those, too,
flow through the same composition path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Iterator

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.campaign import RunSpec
from repro.errors import ConfigurationError

#: The run spec each scenario kind lowers to.
_SPECS = {"ch4": Chapter4Spec, "ch5": Chapter5Spec}

#: Spec kinds a scenario can lower to.
SCENARIO_KINDS = tuple(_SPECS)


@dataclass(frozen=True)
class Scenario:
    """One named workload/DTM/thermal/traffic scenario.

    Composition axes:

    - **workload**: ``mix`` (Table 4.2 / 5.2 name);
    - **DTM policy**: ``policy`` short name;
    - **thermal model**: ``cooling`` + ``ambient`` (+ ``interaction``,
      ``inlet_delta_c``) for ch4, ``platform`` (+ ``ambient_override_c``,
      ``amb_tdp_c``) for ch5;
    - **platform shape**: ``channels`` x ``dimms_per_channel``;
    - **traffic shape**: ``duty_cycle``/``duty_period_s`` bursts and
      ``bandwidth_scale`` envelope scaling.
    """

    name: str
    description: str
    kind: str = "ch4"
    mix: str = "W1"
    policy: str = "ts"
    # -- ch4 axes ---------------------------------------------------------
    cooling: str = "AOHS_1.5"
    ambient: str = "isolated"
    dtm_interval_s: float = 0.010
    interaction: float | None = None
    amb_trp_c: float | None = None
    dram_trp_c: float | None = None
    inlet_delta_c: float = 0.0
    channels: int = 4
    dimms_per_channel: int = 4
    duty_cycle: float = 1.0
    duty_period_s: float = 0.1
    bandwidth_scale: float = 1.0
    # -- ch5 axes ---------------------------------------------------------
    platform: str = "PE1950"
    time_slice_s: float | None = None
    ambient_override_c: float | None = None
    amb_tdp_c: float | None = None
    base_frequency_level: int = 0
    #: Free-form labels for ``scenarios list`` filtering.
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"scenario {self.name!r}: kind must be one of {SCENARIO_KINDS}, "
                f"got {self.kind!r}"
            )
        off_kind = _ONLY["ch5" if self.kind == "ch4" else "ch4"]
        for field_name, default in off_kind.items():
            if getattr(self, field_name) != default:
                raise ConfigurationError(
                    f"scenario {self.name!r}: {field_name!r} does not apply to "
                    f"{self.kind} scenarios"
                )
        # Every other axis is checked by the spec it lowers to.
        try:
            self.spec()
        except ConfigurationError as error:
            raise ConfigurationError(f"scenario {self.name!r}: {error}") from None

    def spec(
        self,
        copies: int = 2,
        mix: str | None = None,
        policy: str | None = None,
    ) -> RunSpec:
        """Lower this scenario to a campaign run spec.

        ``mix``/``policy`` override the scenario's own axes — that is how
        the campaign's scenarios grid crosses a scenario with extra
        workloads or policies.
        """
        axes = {name: getattr(self, name) for name in _ONLY[self.kind]}
        return _SPECS[self.kind](
            scenario=self.name,
            mix=self.mix if mix is None else mix,
            policy=self.policy if policy is None else policy,
            copies=copies,
            **axes,
        )

    def with_overrides(self, **changes) -> "Scenario":
        """A copy with dataclass fields replaced (validation re-runs)."""
        return replace(self, **changes)


def _only(spec: type, other: type) -> dict[str, Any]:
    """The scenario axes of run spec ``spec`` that ``other`` lacks, with
    their neutral defaults: the axes that only make sense for one kind."""
    theirs = {f.name for f in fields(other)}
    return {
        f.name: f.default
        for f in fields(spec)
        if f.name not in theirs and f.name in Scenario.__dataclass_fields__
    }


_ONLY = {
    "ch4": _only(Chapter4Spec, Chapter5Spec),
    "ch5": _only(Chapter5Spec, Chapter4Spec),
}


def grid_scenario(
    kind: str,
    mix: str,
    policy: str,
    *,
    cooling: str = "AOHS_1.5",
    ambient: str = "isolated",
    platform: str = "PE1950",
) -> Scenario:
    """A canonical unregistered scenario for one ad-hoc grid/CLI cell.

    The name is deterministic in the axes, so an ad-hoc CLI run and the
    equivalent campaign grid cell share one cache entry.
    """
    if kind == "ch4":
        return Scenario(
            name=f"ch4:{cooling}:{mix}:{policy}",
            description=f"{policy} on {mix} @ {cooling} ({ambient} model)",
            kind="ch4",
            mix=mix,
            policy=policy,
            cooling=cooling,
            ambient=ambient,
        )
    if kind == "ch5":
        return Scenario(
            name=f"ch5:{platform}:{mix}:{policy}",
            description=f"{policy} on {mix} @ {platform}",
            kind="ch5",
            mix=mix,
            policy=policy,
            platform=platform,
        )
    raise ConfigurationError(f"kind must be one of {SCENARIO_KINDS}, got {kind!r}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace_existing: bool = False) -> Scenario:
    """Add a scenario to the registry (name collisions are errors)."""
    if not replace_existing and scenario.name in _SCENARIOS:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered"
        )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    scenario = _SCENARIOS.get(name)
    if scenario is None:
        known = ", ".join(sorted(_SCENARIOS)) or "none registered"
        raise ConfigurationError(f"unknown scenario {name!r} (have: {known})")
    return scenario


def scenario_names() -> tuple[str, ...]:
    """Sorted names of every registered scenario."""
    return tuple(sorted(_SCENARIOS))


def iter_scenarios(kind: str | None = None, tag: str | None = None) -> Iterator[Scenario]:
    """Registered scenarios in name order, optionally filtered."""
    for name in scenario_names():
        scenario = _SCENARIOS[name]
        if kind is not None and scenario.kind != kind:
            continue
        if tag is not None and tag not in scenario.tags:
            continue
        yield scenario
