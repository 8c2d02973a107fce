"""Value domains: inputs and run state declared once, checked in one place.

One :class:`Kind` vocabulary declares both.  An input dataclass (the
run specs, :class:`~repro.core.simulator.SimulationConfig`, the
:mod:`repro.params` tables, the API requests) declares each field's
domain once, ``copies: int = domain(Count(minimum=1), 2)``, and its
``__post_init__`` calls :func:`check_domain`, which refuses a value
outside it with a :class:`~repro.errors.ConfigurationError` naming the
field.  A rule across fields follows that call in the same hook.

For checkpoints, every stateful part of a run (the DTM policies'
latches, integrals and rotation counters, the batch scheduler, the
strategies' counters, the thermal kernel's temperatures, the trace
recorder) declares its checkpoint fields once, in a class-level
``STATE_FIELDS`` table of :class:`Field` entries: the key in the
snapshot, the attribute holding the value, its kind, and the value an
absent key decodes as.  Dataclasses (:class:`~repro.engine.state.EngineState`,
the job store's ``JobRecord``, :class:`~repro.core.results.TemperatureTrace`)
declare it on the field instead: ``windows: int = state_field(Count())``.

:func:`state_dict` writes a component.  :func:`decode_state` checks a
snapshot section against the component's table, and the tables of the
components nested in it, without assigning anything; :func:`apply_state`
then assigns what it decoded, so a restore succeeds whole or changes
nothing.  Every :class:`~repro.errors.CheckpointError` names the field's
dotted path from the snapshot root, list items by index
(``strategy_state.scheduler.slots.0.2 must be >= 0.0, got -1.0``).

A component whose state holds objects, or obeys a rule across fields,
defines ``_state_hook(values, path)``: it receives the decoded values by
attribute, types and ranges already checked, checks the cross-field
rules, maps values to objects, and returns the attribute values to
assign.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import CheckpointError, ConfigurationError

#: Default of a field whose key must be present.
REQUIRED: Any = object()


class Kind:
    """How one value is written (:meth:`encode`) and checked
    (:meth:`decode`, given the owning component, raising ``error``
    naming ``path``; NaN fails every bound)."""

    def encode(self, value: Any) -> Any:
        return value

    def decode(self, value: Any, path: str, owner: Any, error: type) -> Any:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class Float(Kind):
    """A finite number ``>= minimum`` (``> minimum`` when ``strict``)
    and ``<= maximum``; booleans refused."""

    minimum: float = -math.inf
    maximum: float = math.inf
    strict: bool = False

    def decode(self, value: Any, path: str, owner: Any, error: type) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error(f"{path} must be a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise error(f"{path} must be finite, got {value!r}")
        if not (value > self.minimum if self.strict else value >= self.minimum):
            bound = ">" if self.strict else ">="
            raise error(f"{path} must be {bound} {self.minimum}, got {value!r}")
        if not value <= self.maximum:
            raise error(f"{path} must be <= {self.maximum}, got {value!r}")
        return value

    def holds_all(self, values: Any) -> bool:
        """Whether every item is a plain float in this domain, in a few
        C-level passes (a trace column runs to thousands of samples): a
        finite sum rules out NaN and infinity, and the least and greatest
        item bound the rest."""
        if set(map(type, values)) != {float} or not math.isfinite(sum(values)):
            return False
        low = min(values)
        above = low > self.minimum if self.strict else low >= self.minimum
        return above and max(values) <= self.maximum


@dataclasses.dataclass(frozen=True)
class Count(Kind):
    """An integer in ``[minimum, limit)``; ``limit`` may be a function
    of the owning component."""

    limit: float | Callable[[Any], int] = math.inf
    minimum: float = 0

    def decode(self, value: Any, path: str, owner: Any, error: type) -> int:
        limit = self.limit(owner) if callable(self.limit) else self.limit
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or not self.minimum <= value < limit
        ):
            what = "a non-negative integer" if self.minimum == 0 else "an integer"
            if self.minimum != 0 and type(value) is int:
                what = f">= {self.minimum}"
            below = "" if limit == math.inf else f" below {limit}"
            raise error(f"{path} must be {what}{below}, got {value!r}")
        return value


class Flag(Kind):
    """A boolean: ``"false"`` or ``1`` is refused, not cast."""

    def decode(self, value: Any, path: str, owner: Any, error: type) -> bool:
        if not isinstance(value, bool):
            raise error(f"{path} must be a boolean, got {value!r}")
        return value


@dataclasses.dataclass(frozen=True)
class Text(Kind):
    """A string, one of ``choices`` when given; a refusal calls a value
    outside them an ``unknown <noun>`` when ``noun`` is given."""

    choices: tuple[str, ...] | frozenset[str] | None = None
    noun: str | None = None

    def decode(self, value: Any, path: str, owner: Any, error: type) -> str:
        if not isinstance(value, str):
            raise error(f"{path} must be a string, got {value!r}")
        if self.choices is not None and value not in self.choices:
            unknown = f"unknown {self.noun} {value!r}: " if self.noun else ""
            raise error(
                f"{unknown}{path} must be one of {sorted(self.choices)}, "
                f"got {value!r}"
            )
        return value


@dataclasses.dataclass(frozen=True)
class Optional(Kind):
    """``kind`` or null, which stands for the attribute value ``none``
    (JSON has no infinity, so a pristine ``inf`` is written as null)."""

    kind: Kind
    none: Any = None

    def encode(self, value: Any) -> Any:
        return None if value == self.none else self.kind.encode(value)

    def decode(self, value: Any, path: str, owner: Any, error: type) -> Any:
        if value is None:
            return self.none
        return self.kind.decode(value, path, owner, error)


@dataclasses.dataclass(frozen=True)
class ListOf(Kind):
    """A list (a tuple too) of ``item`` values, ``length(owner)`` long
    when given, and not empty when ``nonempty``."""

    item: Kind
    length: Callable[[Any], int] | None = None
    nonempty: bool = False

    def encode(self, value: Any) -> list:
        if type(self.item).encode is Kind.encode:
            # The item kind writes values as they are (a trace column's
            # floats): one C-level copy, not one call per item.
            return list(value)
        return [self.item.encode(item) for item in value]

    def decode(self, value: Any, path: str, owner: Any, error: type) -> list:
        if not isinstance(value, (list, tuple)):
            raise error(f"{path} must be a list, got {value!r}")
        if self.length is not None and len(value) != self.length(owner):
            raise error(f"{path} must list {self.length(owner)} values, got {value!r}")
        if self.nonempty and not value:
            raise error(f"{path} must list at least one value")
        if isinstance(self.item, Float) and self.item.holds_all(value):
            return list(value)
        return [
            self.item.decode(item, f"{path}.{index}", owner, error)
            for index, item in enumerate(value)
        ]


class Row(Kind):
    """A fixed-length list with one kind per position."""

    def __init__(self, *items: Kind) -> None:
        self.items = items

    def encode(self, value: Any) -> list:
        return [kind.encode(item) for kind, item in zip(self.items, value)]

    def decode(self, value: Any, path: str, owner: Any, error: type) -> list:
        if not isinstance(value, list) or len(value) != len(self.items):
            raise error(
                f"{path} must be a list of {len(self.items)} values, got {value!r}"
            )
        return [
            kind.decode(item, f"{path}.{index}", owner, error)
            for index, (kind, item) in enumerate(zip(self.items, value))
        ]


@dataclasses.dataclass(frozen=True)
class Instance(Kind):
    """A ``cls`` object, whose own construction checked its fields."""

    cls: type

    def decode(self, value: Any, path: str, owner: Any, error: type) -> Any:
        if not isinstance(value, self.cls):
            raise error(f"{path} must be a {self.cls.__name__}, got {value!r}")
        return value


@dataclasses.dataclass(frozen=True)
class Object(Kind):
    """A JSON object, its values of kind ``item`` (kept as they are
    when ``item`` is None)."""

    item: Kind | None = None

    def encode(self, value: Any) -> dict:
        if self.item is None:
            return dict(value)
        return {key: self.item.encode(item) for key, item in value.items()}

    def decode(self, value: Any, path: str, owner: Any, error: type) -> dict:
        if not isinstance(value, Mapping):
            raise error(f"{path} must be an object, got {value!r}")
        if self.item is None:
            return dict(value)
        return {
            key: self.item.decode(item, f"{path}.{key}", owner, error)
            for key, item in value.items()
        }


class Nested(Kind):
    """A component restored in place, by its own table."""

    def encode(self, value: Any) -> dict:
        return state_dict(value)


class Field(NamedTuple):
    """One checkpoint field of a component."""

    key: str
    attr: str
    kind: Kind
    default: Any = REQUIRED


def _field(default: Any, metadata: dict) -> Any:
    """A dataclass field; a callable default is a factory (``list``)."""
    if default is REQUIRED:
        return dataclasses.field(metadata=metadata)
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def state_field(kind: Kind, default: Any = REQUIRED, required: bool = False) -> Any:
    """A dataclass field declared for the codec; a ``required`` key must
    be present in a snapshot even though the field has a default."""
    return _field(default, {"checkpoint": kind, "required": required})


def domain(kind: Kind, default: Any = REQUIRED, **metadata: Any) -> Any:
    """A dataclass field whose value must be of ``kind``, checked when
    the object is built (:func:`check_domain`); ``metadata`` rides along
    (a request field's ``help``)."""
    return _field(default, {"domain": kind, **metadata})


def domain_of(cls: type, name: str) -> Kind:
    """The declared kind of field ``name`` of dataclass ``cls``."""
    return cls.__dataclass_fields__[name].metadata["domain"]


#: Per dataclass: ``(name, kind.decode)`` of its declared fields, in
#: field order.
_DOMAINS: dict[type, tuple[tuple[str, Callable], ...]] = {}


def check_domain(obj: Any) -> None:
    """Refuse, with a :class:`ConfigurationError` naming the field, any
    declared field of dataclass ``obj`` outside its kind; usable as a
    whole ``__post_init__``.

    A value is checked in place and never converted (what ``decode``
    returns is dropped), so an ``int`` given for a float field stays an
    ``int`` and keeps its spec's cache key.  Fields are checked in
    declaration order: a ``Count(limit=...)`` may read an earlier one.
    """
    table = _DOMAINS.get(type(obj))
    if table is None:
        table = _DOMAINS[type(obj)] = tuple(
            (f.name, f.metadata["domain"].decode)
            for f in dataclasses.fields(obj)
            if "domain" in f.metadata
        )
    values = vars(obj)
    for name, decode in table:
        decode(values[name], name, obj, ConfigurationError)


def _default(f: dataclasses.Field) -> Any:
    if f.metadata["required"]:
        return REQUIRED
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return REQUIRED if f.default is dataclasses.MISSING else f.default


#: Per dataclass: its declared checkpoint fields, in field order.
_FIELDS: dict[type, tuple[Field, ...]] = {}


def fields_of(component: Any) -> tuple[Field, ...]:
    """The declared checkpoint fields of a component or dataclass; a
    dataclass's table is built once, as :func:`check_domain` builds
    its own."""
    table = getattr(component, "STATE_FIELDS", None)
    if table is None:
        cls = component if isinstance(component, type) else type(component)
        table = _FIELDS.get(cls)
        if table is None:
            table = _FIELDS[cls] = tuple(
                Field(f.name, f.name, f.metadata["checkpoint"], _default(f))
                for f in dataclasses.fields(cls)
                if "checkpoint" in f.metadata
            )
    return table


def state_dict(component: Any) -> dict:
    """A component's checkpoint state (JSON-ready)."""
    return {
        field.key: field.kind.encode(getattr(component, field.attr))
        for field in fields_of(component)
    }


class Decoded(dict):
    """Decoded values of a nested component, by attribute."""


def decode_state(component: Any, raw: Any, path: str) -> Decoded:
    """Check ``raw`` against the component's table, recursively, and
    return the values to assign without assigning any."""
    if not isinstance(raw, Mapping):
        raise CheckpointError(f"{path or 'state'} must be an object, got {raw!r}")
    values = Decoded()
    for field in fields_of(component):
        where = f"{path}.{field.key}" if path else field.key
        value = raw.get(field.key, field.default)
        if value is REQUIRED:
            raise CheckpointError(f"{where} is missing")
        if isinstance(field.kind, Nested):
            child = getattr(component, field.attr)
            value = decode_state(child, value, where)
        else:
            value = field.kind.decode(value, where, component, CheckpointError)
        values[field.attr] = value
    hook = getattr(component, "_state_hook", None)
    return values if hook is None else Decoded(hook(values, path))


def apply_state(component: Any, values: Mapping[str, Any]) -> None:
    """Assign values returned by :func:`decode_state`."""
    for attr, value in values.items():
        if isinstance(value, Decoded):
            apply_state(getattr(component, attr), value)
        else:
            setattr(component, attr, value)


def load_state_dict(component: Any, raw: Any, path: str = "") -> None:
    """Restore a component from :func:`state_dict` output, all or
    nothing."""
    apply_state(component, decode_state(component, raw, path))


def decode_record(cls: type, raw: Any, what: str) -> Any:
    """A dataclass built from checked values; errors read
    ``malformed <what>: ...``."""
    try:
        return cls(**decode_state(cls, raw, ""))
    except CheckpointError as error:
        raise CheckpointError(f"malformed {what}: {error}") from None


def version_major(version: Any, what: str, error: type) -> int:
    """The major component of a ``"<major>.<minor>"`` version string;
    a malformed one raises ``error`` naming ``what``."""
    major, _, minor = str(version).partition(".")
    if not major.isdigit() or not minor.isdigit():
        raise error(
            f"malformed {what} {version!r} (expected '<major>.<minor>')"
        )
    return int(major)
