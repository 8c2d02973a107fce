"""Value domains: inputs, run state and documents declared once, checked
in one place.

One :class:`Kind` vocabulary and one field helper declare them all: a
dataclass declares each field's domain on the field,
``copies: int = domain(Count(minimum=1), 2)``.  An input dataclass (a
run spec, a :mod:`repro.params` table, an API request, an envelope)
makes :func:`check_domain` its ``__post_init__``, which refuses a value
outside its kind with a :class:`~repro.errors.ConfigurationError`
naming the field; a rule across fields follows that call in the same
hook.  Every document that crosses a process, disk or HTTP boundary is
read by one :func:`decode_record` call, whose ``error`` is a
``ConfigurationError`` (HTTP 400) for a wire document and a
:class:`~repro.errors.CheckpointError` (an unreadable record, a cache
miss) for a stored one.

A stateful part of a run that is not a dataclass (the DTM policies'
latches, integrals and rotation counters, the batch scheduler, the
strategies' counters, the thermal kernel's temperatures, the trace
recorder) declares its fields in a class-level ``STATE_FIELDS`` table
of :class:`Field` entries: the key in the snapshot, the attribute
holding the value, its kind, and the value an absent key decodes as.

:func:`state_dict` writes a component.  :func:`decode_state` checks a
snapshot section against the component's table, and the tables of the
components nested in it, without assigning anything; :func:`apply_state`
then assigns what it decoded, so a restore succeeds whole or changes
nothing.  Every refusal names the field's dotted path from the document
root, list items by index
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
import re
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import CheckpointError, ConfigurationError

#: Default of a field whose key must be present.
REQUIRED: Any = object()

_DOTTED = re.compile(r"[0-9]+\.[0-9]+")


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


@dataclasses.dataclass(frozen=True)
class Record(Kind):
    """A nested declared document of dataclass ``cls`` (a ``cls`` object
    given at construction was checked when it was built)."""

    cls: type

    def encode(self, value: Any) -> dict:
        return state_dict(value)

    def decode(self, value: Any, path: str, owner: Any, error: type) -> Any:
        if isinstance(value, self.cls):
            return value
        return self.cls(**decode_state(self.cls, value, path, error))


@dataclasses.dataclass(frozen=True)
class Version(Kind):
    """A ``"<major>.<minor>"`` version: a minor bump only adds fields, a
    major one may remove them, so only ``current``'s major reads."""

    current: str

    def decode(self, value: Any, path: str, owner: Any, error: type) -> str:
        if not (isinstance(value, str) and _DOTTED.fullmatch(value)):
            raise error(f"malformed {path} {value!r} (expected '<major>.<minor>')")
        major = self.current.partition(".")[0]
        if int(value.partition(".")[0]) != int(major):
            raise error(
                f"incompatible {path} {value!r}: this build speaks major "
                f"{major} ({self.current})"
            )
        return value


class Field(NamedTuple):
    """One declared field of a component or dataclass."""

    key: str
    attr: str
    kind: Kind
    default: Any = REQUIRED


def domain(
    kind: Kind, default: Any = REQUIRED, *, required: bool = False, **metadata: Any
) -> Any:
    """A dataclass field whose value must be of ``kind``; a callable
    ``default`` is a factory (``list``).  A ``required`` key must be
    present in a decoded document even though the field has a default;
    ``metadata`` rides along (a request field's ``help``)."""
    metadata = {"domain": kind, "required": required, **metadata}
    if default is REQUIRED:
        return dataclasses.field(metadata=metadata)
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def domain_of(cls: type, name: str) -> Kind:
    """The declared kind of field ``name`` of dataclass ``cls``."""
    return cls.__dataclass_fields__[name].metadata["domain"]


def _default(f: dataclasses.Field) -> Any:
    if f.metadata["required"]:
        return REQUIRED
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return REQUIRED if f.default is dataclasses.MISSING else f.default


#: Per dataclass, built once: its declared fields in field order, and
#: the ``(name, kind.decode)`` pairs :func:`check_domain` runs.
_TABLES: dict[type, tuple[tuple[Field, ...], tuple]] = {}


def _table(cls: type) -> tuple[tuple[Field, ...], tuple]:
    table = _TABLES.get(cls)
    if table is None:
        fields = tuple(
            Field(f.name, f.name, f.metadata["domain"], _default(f))
            for f in dataclasses.fields(cls)
            if "domain" in f.metadata
        )
        table = _TABLES[cls] = fields, tuple((f.key, f.kind.decode) for f in fields)
    return table


def check_domain(obj: Any) -> None:
    """Refuse, with a :class:`ConfigurationError` naming the field, any
    declared field of dataclass ``obj`` outside its kind; usable as a
    whole ``__post_init__``.

    A value is checked in place and never converted (what ``decode``
    returns is dropped), so an ``int`` given for a float field stays an
    ``int`` and keeps its spec's cache key.  Fields are checked in
    declaration order: a ``Count(limit=...)`` may read an earlier one.
    """
    checks = (_TABLES.get(type(obj)) or _table(type(obj)))[1]
    values = vars(obj)
    for name, decode in checks:
        decode(values[name], name, obj, ConfigurationError)


def fields_of(component: Any) -> tuple[Field, ...]:
    """The declared fields of a component (its ``STATE_FIELDS``) or of
    a dataclass or its object."""
    table = getattr(component, "STATE_FIELDS", None)
    if table is None:
        cls = component if isinstance(component, type) else type(component)
        table = _table(cls)[0]
    return table


def state_dict(component: Any) -> dict:
    """A component's or declared object's document (JSON-ready)."""
    return {
        field.key: field.kind.encode(getattr(component, field.attr))
        for field in fields_of(component)
    }


class Decoded(dict):
    """Decoded values of a component, by attribute; while a dataclass's
    document decodes, its kinds read the earlier fields' values as
    attributes (a ``Count(limit=...)`` reading another field)."""

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def decode_state(
    component: Any, raw: Any, path: str, error: type = CheckpointError
) -> Decoded:
    """Check ``raw`` against the component's table, recursively, and
    return the values to assign without assigning any; a defect raises
    ``error`` naming its path."""
    if not isinstance(raw, Mapping):
        raise error(f"{path or 'document'} must be an object, got {raw!r}")
    values = Decoded()
    owner = values if isinstance(component, type) else component
    for field in fields_of(component):
        where = f"{path}.{field.key}" if path else field.key
        value = raw.get(field.key, field.default)
        if value is REQUIRED:
            raise error(f"{where} is missing")
        if isinstance(field.kind, Nested):
            child = getattr(component, field.attr)
            value = decode_state(child, value, where, error)
        else:
            value = field.kind.decode(value, where, owner, error)
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


def decode_record(
    cls: type, raw: Any, what: str, error: type = CheckpointError
) -> Any:
    """A declared dataclass built from checked values: the one reader
    of every boundary document.  A defect raises ``error`` reading
    ``malformed <what>: ...``."""
    try:
        return cls(**decode_state(cls, raw, "", error))
    except error as refusal:
        raise error(f"malformed {what}: {refusal}") from None
