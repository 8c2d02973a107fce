"""Typed request objects — the stable input vocabulary of the API.

Each request is a frozen, validated dataclass with one lowering,
``cells()``: its ``(run spec, request echo)`` pairs, which the
:class:`~repro.api.client.ReproClient` methods and the job scheduler
both run (so API runs share cache entries with CLI, job and bench
runs).  The CLI subcommands, the client, and the HTTP routes of
``python -m repro serve`` all construct these same objects, which is
what keeps the three surfaces behaviorally identical.

One schema: each field's domain (a :mod:`repro.engine.codec` kind: a
name, a count or a name list) and help text are declared once, on the
field.  A field that lowers to a run-spec field takes that field's
domain (``SimulateRequest.cooling`` is ``Chapter4Spec.cooling``'s), so
a bad value fails the same way, naming the field, from a request and
from a spec.  :data:`REQUEST_SCHEMA` resolves the declarations once per
class for the CLI's generated flags, the service's query parameters
and :func:`request_from_text`, which parses the text of CLI flags, HTTP
query strings and ``jobs submit --set`` alike (name lists split on
commas: ``mixes=W1,W2``).

``request_to_dict``/``request_from_dict`` round-trip requests through
plain JSON-shaped dicts keyed by a ``"type"`` tag — the form the HTTP
service accepts and the form echoed inside every
:class:`~repro.api.envelope.ResultEnvelope`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Any, ClassVar, Mapping, NamedTuple

from repro.analysis.campaigns import CAMPAIGN_GRIDS, ch4_cell, ch5_cell
from repro.analysis.specs import CHAPTER4_POLICIES, Chapter4Spec, Chapter5Spec
from repro.campaign import RunSpec
from repro.engine.codec import (
    Count,
    Kind,
    ListOf,
    Optional,
    Text,
    check_domain,
    domain,
    domain_of,
)
from repro.errors import ConfigurationError

#: One cell of a request: its run spec and the request echo its
#: envelope carries.
Cell = tuple[RunSpec, dict]


class FieldSpec(NamedTuple):
    """One request field, resolved once from its dataclass declaration."""

    name: str
    kind: Kind
    default: Any
    help: str


def _field(kind: Kind, default: Any, help_text: str) -> Any:
    """A request field: its domain, default and help text."""
    return domain(kind, default, help=help_text)


def _lowered(spec: type, name: str, default: Any, help_text: str) -> Any:
    """A request field that lowers to field ``name`` of run spec class
    ``spec``, and so takes that field's domain."""
    return _field(domain_of(spec, name), default, help_text)


_MIX_HELP = "workload mix of Table 4.2 or 5.2"
_COPIES_HELP = "copies of each program in the batch"


@dataclass(frozen=True)
class _OnGrid(Kind):
    """A name on an axis of the request's grid: its ``policy`` or its
    ``variant`` kind, so a refusal names the grid's own noun."""

    axis: str

    def decode(self, value: Any, path: str, owner: Any, error: type) -> str:
        kind = getattr(CAMPAIGN_GRIDS[owner.grid], self.axis)
        return kind.decode(value, path, owner, error)


_jobs = partial(
    _field, Count(minimum=1), 1,
    "parallel worker processes; results are order-deterministic",
)


class _Request:
    """The one validation every request class shares: each field's
    declared domain, checked in place (:func:`check_domain`)."""

    __post_init__ = check_domain


@dataclass(frozen=True)
class SimulateRequest(_Request):
    """One Chapter 4 two-level simulation cell."""

    TYPE: ClassVar[str] = "simulate"

    mix: str = _lowered(Chapter4Spec, "mix", "W1", _MIX_HELP)
    policy: str = _lowered(Chapter4Spec, "policy", "acg", "Chapter 4 DTM scheme")
    cooling: str = _lowered(
        Chapter4Spec, "cooling", "AOHS_1.5", "cooling configuration"
    )
    ambient: str = _lowered(
        Chapter4Spec, "ambient", "isolated", "thermal model of the memory ambient"
    )
    copies: int = _lowered(Chapter4Spec, "copies", 2, _COPIES_HELP)

    def cells(self) -> list[Cell]:
        """The one cell, echoing this request."""
        spec = ch4_cell(
            self.mix, self.policy, self.copies,
            cooling=self.cooling, ambient=self.ambient,
        )
        return [(spec, request_to_dict(self))]


@dataclass(frozen=True)
class ServerRequest(_Request):
    """One Chapter 5 server measurement cell."""

    TYPE: ClassVar[str] = "server"

    platform: str = _lowered(
        Chapter5Spec, "platform", "PE1950", "Chapter 5 server platform"
    )
    mix: str = _lowered(Chapter5Spec, "mix", "W1", _MIX_HELP)
    policy: str = _lowered(Chapter5Spec, "policy", "acg", "Chapter 5 DTM scheme")
    copies: int = _lowered(Chapter5Spec, "copies", 2, _COPIES_HELP)

    def cells(self) -> list[Cell]:
        """The one cell, echoing this request."""
        spec = ch5_cell(self.mix, self.policy, self.copies, platform=self.platform)
        return [(spec, request_to_dict(self))]


@dataclass(frozen=True)
class CompareRequest(_Request):
    """Every Chapter 4 scheme on one mix (the Fig. 4.3 view)."""

    TYPE: ClassVar[str] = "compare"

    mix: str = _lowered(Chapter4Spec, "mix", "W1", _MIX_HELP)
    cooling: str = _lowered(
        Chapter4Spec, "cooling", "AOHS_1.5", "cooling configuration"
    )
    copies: int = _lowered(Chapter4Spec, "copies", 2, _COPIES_HELP)

    def cells(self) -> list[Cell]:
        """One simulate cell per scheme, no-limit baseline first.

        Each echoes the equivalent simulate request, so a compare is
        exactly N cache-shared simulate calls.
        """
        return [
            cell
            for policy in CHAPTER4_POLICIES
            for cell in SimulateRequest(
                mix=self.mix, policy=policy,
                cooling=self.cooling, copies=self.copies,
            ).cells()
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
        Text(tuple(CAMPAIGN_GRIDS), noun="campaign grid"), "ch4",
        "named grid: ch4 for simulation, ch5 for server "
        "measurement, scenarios for the registered library",
    )
    mixes: tuple[str, ...] | None = _field(
        Optional(ListOf(domain_of(Chapter4Spec, "mix"))), None,
        "comma-separated workload mixes (default: W1, or each "
        "scenario's own mix for the scenarios grid)",
    )
    policies: tuple[str, ...] | None = _field(
        Optional(ListOf(_OnGrid("policy"))), None,
        "comma-separated policies (default: every policy of the "
        "grid, or each scenario's own policy for the scenarios grid)",
    )
    variants: tuple[str, ...] | None = _field(
        Optional(ListOf(_OnGrid("variant"))), None,
        "comma-separated third-axis values: coolings (ch4), "
        "platforms (ch5) or scenario names (scenarios)",
    )
    copies: int = _lowered(Chapter4Spec, "copies", 2, _COPIES_HELP)
    jobs: int = _jobs()

    def cells(self) -> list[Cell]:
        """The grid's cells, ``None`` axes taking the grid's defaults.

        Explicit empty axes stay empty: on the ch4/ch5 grids (and for
        ``variants`` everywhere) that fails with "zero runs", while the
        scenarios grid reads an empty mix or policy axis as "keep each
        scenario's own".  A cell echoes its whole run spec under type
        ``"cell"`` (library scenarios carry knobs no top-level request
        can express), so unlike a simulate/server/compare echo it is
        descriptive, not replayable through :func:`request_from_dict`.
        """
        grid = CAMPAIGN_GRIDS[self.grid]
        specs = grid.expand(
            grid.mixes_default if self.mixes is None else self.mixes,
            grid.policies_default if self.policies is None else self.policies,
            (grid.variant_default,) if self.variants is None else self.variants,
            self.copies,
        )
        if not specs:
            raise ConfigurationError("campaign expanded to zero runs")
        return [
            (spec, {"type": "cell", "kind": spec.kind, **asdict(spec)})
            for spec in specs
        ]


@dataclass(frozen=True)
class ScenarioRequest(_Request):
    """Run registered library scenarios by name (``all`` expands)."""

    TYPE: ClassVar[str] = "scenarios"
    #: The campaign grid whose cells (and table) these runs are.
    grid: ClassVar[str] = "scenarios"

    names: tuple[str, ...] = _field(
        ListOf(CAMPAIGN_GRIDS["scenarios"].variant, nonempty=True), (),
        "comma-separated scenario names, or 'all'",
    )
    copies: int = _lowered(Chapter4Spec, "copies", 2, _COPIES_HELP)
    jobs: int = _jobs()

    def cells(self) -> list[Cell]:
        """The scenarios grid's cells for these names (``all`` expands),
        so a scenario run names the same cells as ``campaign --grid
        scenarios``."""
        return CampaignRequest(
            grid=self.grid, variants=self.names, copies=self.copies
        ).cells()


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
REQUEST_SCHEMA: dict[type, dict[str, FieldSpec]] = {
    cls: {
        f.name: FieldSpec(f.name, f.metadata["domain"], f.default, f.metadata["help"])
        for f in fields(cls)
    }
    for cls in REQUEST_TYPES.values()
}


def split_names(text: str) -> tuple[str, ...]:
    """A comma-separated list as a tuple of names (blank items dropped)."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def request_from_text(type_tag: str, values: Mapping[str, Any]) -> Any:
    """Build a typed request from the text of CLI flags, query strings, ``--set``.

    A string value parses by its field's kind: a count as an integer,
    a name list by :func:`split_names`, a name as given.  Any other
    value is taken as already typed (the CLI's positional scenario
    names).  Unknown keys fail as in :func:`request_from_dict`.
    """
    schema = REQUEST_SCHEMA.get(REQUEST_TYPES.get(type_tag), {})
    data = dict(values, type=type_tag)
    for name, spec in schema.items():
        text = data.get(name)
        if not isinstance(text, str) or isinstance(spec.kind, Text):
            continue
        if not isinstance(spec.kind, Count):
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
    # A JSON array is a name list: the request holds it as a tuple.
    data = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in raw.items()
        if key != "type"
    }
    unknown = data.keys() - known.keys()
    if unknown:
        raise ConfigurationError(
            f"unknown {type_tag} request fields {sorted(unknown)} "
            f"(accepted: {sorted(known)})"
        )
    return cls(**data)
