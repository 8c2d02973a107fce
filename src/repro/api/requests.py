"""Typed request objects — the stable input vocabulary of the API.

Each request is a frozen, validated dataclass that knows how to lower
itself to campaign-engine run specs (via the scenario engine, so API
runs share cache entries with CLI and bench runs).  The CLI subcommands,
the :class:`~repro.api.client.ReproClient` methods, and the HTTP routes
of ``python -m repro serve`` all construct these same objects, which is
what keeps the three surfaces behaviorally identical.

One schema: each field's type (its annotation: ``str``, ``int`` or a
``tuple[str, ...]`` name list), allowed values and help text are
declared once, on the field.  :data:`REQUEST_SCHEMA` resolves them once
per class for the shared ``__post_init__`` check, the CLI's generated
flags, and :func:`request_from_text`, which parses the text of CLI
flags, HTTP query strings and ``jobs submit --set`` alike (name lists
split on commas: ``mixes=W1,W2``).

``request_to_dict``/``request_from_dict`` round-trip requests through
plain JSON-shaped dicts keyed by a ``"type"`` tag — the form the HTTP
service accepts and the form echoed inside every
:class:`~repro.api.envelope.ResultEnvelope`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, ClassVar, Mapping, NamedTuple

from repro.analysis.campaigns import CAMPAIGN_GRIDS, NamedGrid, expand_campaign
from repro.analysis.specs import (
    CHAPTER4_POLICIES,
    CHAPTER4_POLICY_CHOICES,
    CHAPTER5_POLICIES,
)
from repro.campaign import RunSpec
from repro.errors import ConfigurationError
from repro.params.thermal_params import COOLING_CONFIGS
from repro.scenarios import grid_scenario
from repro.testbed.platforms import PLATFORMS
from repro.workloads.mixes import get_mix


class FieldSpec(NamedTuple):
    """One request field, resolved once from its dataclass declaration."""

    name: str
    kind: str  # "str", "int" (a count >= 1) or "names" (a name list)
    default: Any
    help: str
    choices: tuple[str, ...] | None = None  # allowed values; CLI choices=
    noun: str | None = None  # what "unknown <noun>" errors call a value
    check: Callable[[str], Any] | None = None  # raises on an unknown name


def _field(default: Any, help_text: str, **rules: Any) -> Any:
    """A request field: default, help text and allowed values."""
    return field(default=default, metadata={"help": help_text, **rules})


_mix = partial(_field, "W1", "workload mix of Table 4.2 or 5.2", check=get_mix)
_cooling = partial(
    _field, "AOHS_1.5", "cooling configuration",
    choices=tuple(sorted(COOLING_CONFIGS)), noun="cooling",
)
_copies = partial(_field, 2, "copies of each program in the batch")
_jobs = partial(_field, 1, "parallel worker processes; results are order-deterministic")


def _check_count(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1")


def _name_tuple(axis: str, value: Any) -> tuple[str, ...]:
    """Normalize a list axis to a tuple of strings.

    A bare string is rejected rather than exploded into characters
    (``tuple("W1")`` would become ``("W", "1")`` and produce baffling
    "unknown mix 'W'" errors downstream).
    """
    if not isinstance(value, str):
        try:
            items = tuple(value)
        except TypeError:
            items = None
        if items is not None and all(isinstance(item, str) for item in items):
            return items
    raise ConfigurationError(
        f"{axis} must be a list of strings, got {value!r}"
    )


class _Request:
    """The one validation every request class shares, driven by the schema.

    A name list normalizes to a tuple; it may stay ``None`` when that is
    its default, and must not be empty when its default is ``()``.
    """

    def __post_init__(self) -> None:
        for spec in REQUEST_SCHEMA[type(self)].values():
            value = getattr(self, spec.name)
            if spec.kind == "int":
                _check_count(spec.name, value)
                continue
            if spec.kind == "str":
                if not isinstance(value, str):
                    raise ConfigurationError(
                        f"{spec.name} must be a string, got {value!r}"
                    )
                names = (value,)
            elif value is None and spec.default is None:
                continue
            else:
                names = _name_tuple(spec.name, value)
                object.__setattr__(self, spec.name, names)
                if not names and spec.default is not None:
                    raise ConfigurationError(
                        f"{spec.name} must list at least one name"
                    )
            for name in names:
                if spec.choices is not None and name not in spec.choices:
                    raise ConfigurationError(
                        f"unknown {spec.noun} {name!r}: {spec.name} must "
                        f"be one of {list(spec.choices)}"
                    )
                if spec.check is not None:
                    spec.check(name)


@dataclass(frozen=True)
class SimulateRequest(_Request):
    """One Chapter 4 two-level simulation cell."""

    TYPE: ClassVar[str] = "simulate"

    mix: str = _mix()
    policy: str = _field(
        "acg", "Chapter 4 DTM scheme",
        choices=CHAPTER4_POLICY_CHOICES, noun="ch4 policy",
    )
    cooling: str = _cooling()
    ambient: str = _field(
        "isolated", "thermal model of the memory ambient",
        choices=("isolated", "integrated"), noun="ambient model",
    )
    copies: int = _copies()

    def spec(self) -> RunSpec:
        """Lower to the campaign engine via the scenario engine."""
        scenario = grid_scenario(
            "ch4", self.mix, self.policy,
            cooling=self.cooling, ambient=self.ambient,
        )
        return scenario.spec(copies=self.copies)


@dataclass(frozen=True)
class ServerRequest(_Request):
    """One Chapter 5 server measurement cell."""

    TYPE: ClassVar[str] = "server"

    platform: str = _field(
        "PE1950", "Chapter 5 server platform",
        choices=tuple(sorted(PLATFORMS)), noun="platform",
    )
    mix: str = _mix()
    policy: str = _field(
        "acg", "Chapter 5 DTM scheme",
        choices=CHAPTER5_POLICIES, noun="ch5 policy",
    )
    copies: int = _copies()

    def spec(self) -> RunSpec:
        """Lower to the campaign engine via the scenario engine."""
        scenario = grid_scenario(
            "ch5", self.mix, self.policy, platform=self.platform
        )
        return scenario.spec(copies=self.copies)


@dataclass(frozen=True)
class CompareRequest(_Request):
    """Every Chapter 4 scheme on one mix (the Fig. 4.3 view)."""

    TYPE: ClassVar[str] = "compare"

    mix: str = _mix()
    cooling: str = _cooling()
    copies: int = _copies()

    def cell_requests(self) -> list[SimulateRequest]:
        """The per-policy simulate cells, no-limit baseline first."""
        return [
            SimulateRequest(
                mix=self.mix, policy=policy,
                cooling=self.cooling, copies=self.copies,
            )
            for policy in CHAPTER4_POLICIES
        ]


@dataclass(frozen=True)
class CampaignRequest(_Request):
    """A named (mix x policy x variant) grid through the campaign engine.

    ``None`` axes take the grid's defaults; ``variants`` is the grid's
    third axis (coolings for ``ch4``, platforms for ``ch5``, scenario
    names or ``all`` for ``scenarios``).
    """

    TYPE: ClassVar[str] = "campaign"

    grid: str = _field(
        "ch4", "named grid: ch4 for simulation, ch5 for server "
        "measurement, scenarios for the registered library",
        choices=tuple(sorted(CAMPAIGN_GRIDS)), noun="campaign grid",
    )
    mixes: tuple[str, ...] | None = _field(
        None, "comma-separated workload mixes (default: W1, or each "
        "scenario's own mix for the scenarios grid)",
        check=get_mix,
    )
    policies: tuple[str, ...] | None = _field(
        None, "comma-separated policies (default: every policy of the "
        "grid, or each scenario's own policy for the scenarios grid)",
    )
    variants: tuple[str, ...] | None = _field(
        None, "comma-separated third-axis values: coolings (ch4), "
        "platforms (ch5) or scenario names (scenarios)",
    )
    copies: int = _copies()
    jobs: int = _jobs()

    def cells(self) -> tuple[NamedGrid, list[RunSpec]]:
        """Resolve defaults and expand into (grid, run specs)."""
        return expand_campaign(
            self.grid,
            mixes=self.mixes,
            policies=self.policies,
            variants=self.variants,
            copies=self.copies,
        )


@dataclass(frozen=True)
class ScenarioRequest(_Request):
    """Run registered library scenarios by name (``all`` expands)."""

    TYPE: ClassVar[str] = "scenarios"

    names: tuple[str, ...] = _field((), "comma-separated scenario names, or 'all'")
    copies: int = _copies()
    jobs: int = _jobs()

    def cells(self) -> tuple[NamedGrid, list[RunSpec]]:
        """Expand names (resolving ``all``) into (grid, run specs).

        Goes through the shared :func:`expand_campaign` path — the
        names are the scenarios grid's variant axis — so CLI, HTTP,
        and client scenario runs always name the same cells.
        """
        return expand_campaign(
            "scenarios", variants=self.names, copies=self.copies
        )


#: Every request class, keyed by its wire ``type`` tag.
REQUEST_TYPES: dict[str, type] = {
    cls.TYPE: cls
    for cls in (
        SimulateRequest,
        ServerRequest,
        CompareRequest,
        CampaignRequest,
        ScenarioRequest,
    )
}

#: Every request class's fields, resolved once: class -> name -> spec.
#: The kind is the annotation; a ``tuple[str, ...]`` field is a name list.
REQUEST_SCHEMA: dict[type, dict[str, FieldSpec]] = {
    cls: {
        f.name: FieldSpec(
            f.name, f.type if f.type in ("str", "int") else "names",
            f.default, **f.metadata,
        )
        for f in fields(cls)
    }
    for cls in REQUEST_TYPES.values()
}


def split_names(text: str) -> tuple[str, ...]:
    """A comma-separated list as a tuple of names (blank items dropped)."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def request_from_text(type_tag: str, values: Mapping[str, Any]) -> Any:
    """Build a typed request from the text of CLI flags, query strings, ``--set``.

    A string value parses by its field's kind: an ``int`` field as an
    integer, a name list by :func:`split_names`, a ``str`` field as
    given.  Any other value is taken as already typed (the CLI's
    positional scenario names).  Unknown keys fail as in
    :func:`request_from_dict`.
    """
    schema = REQUEST_SCHEMA.get(REQUEST_TYPES.get(type_tag), {})
    data = dict(values, type=type_tag)
    for name, spec in schema.items():
        text = data.get(name)
        if not isinstance(text, str) or spec.kind == "str":
            continue
        if spec.kind == "names":
            data[name] = split_names(text)
            continue
        try:
            data[name] = int(text)
        except ValueError:
            raise ConfigurationError(
                f"{name} must be an integer, got {text!r}"
            ) from None
    return request_from_dict(data)


def request_to_dict(request: Any) -> dict:
    """Serialize a request to its JSON-shaped dict (with ``type`` tag)."""
    schema = REQUEST_SCHEMA.get(type(request))
    if schema is None:
        raise ConfigurationError(
            f"not an API request object: {type(request).__name__}"
        )
    payload: dict[str, Any] = {"type": request.TYPE}
    for name in schema:
        value = getattr(request, name)
        payload[name] = list(value) if isinstance(value, tuple) else value
    return payload


def request_from_dict(raw: Mapping[str, Any]) -> Any:
    """Build a typed request from its dict form (inverse of to_dict)."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"request must be a JSON object, got {type(raw).__name__}"
        )
    type_tag = raw.get("type")
    cls = REQUEST_TYPES.get(type_tag) if isinstance(type_tag, str) else None
    if cls is None:
        raise ConfigurationError(
            f"unknown request type {type_tag!r} "
            f"(choices: {sorted(REQUEST_TYPES)})"
        )
    known = REQUEST_SCHEMA[cls]
    data = {key: value for key, value in raw.items() if key != "type"}
    unknown = data.keys() - known.keys()
    if unknown:
        raise ConfigurationError(
            f"unknown {type_tag} request fields {sorted(unknown)} "
            f"(accepted: {sorted(known)})"
        )
    return cls(**data)
