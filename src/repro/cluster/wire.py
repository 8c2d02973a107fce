"""The cell wire format — how run specs cross process and HTTP borders.

A *cell* is one deduplicated campaign unit: a run spec plus its cache
key.  The coordinator serializes cells to plain JSON objects, ships
them to workers over the existing ``/v1`` JSON protocol, and the worker
rebuilds the identical frozen spec dataclass from the registered spec
type (:func:`repro.campaign.spec.register_spec_type`) — so a cell
computed remotely lands in the cache under exactly the key a local run
would have used.

Wire shape::

    {"wire_version": 1, "kind": "ch4", "fields": {"mix": "W1", ...}}

Only JSON-scalar spec fields survive the trip (every registered spec
kind — ``ch4``, ``ch5``, and the scenario-lowered cells — satisfies
this).  ``cell_from_wire`` checks each value against its field's
declared type with the checkpoint codec's kinds (a bool field takes a
bool, an int field an int but not a bool, a float field an int or a
finite float, null only where the field is optional), then rebuilds
the spec through its dataclass, so a malformed or hostile payload
fails with a :class:`~repro.errors.ConfigurationError`, never a
partial spec.  Values are checked, not converted: the cache key hashes
each value as sent.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from typing import Any, Mapping

from repro.campaign.spec import RunSpec, spec_type_for
from repro.engine.codec import Count, Flag, Float, Kind, Optional, Text
from repro.errors import CheckpointError, ConfigurationError

#: Bump when the cell wire shape changes incompatibly.  A worker that
#: receives a foreign version rejects the request outright rather than
#: guessing at fields.
WIRE_VERSION = 1

#: The kind that checks a wire value, by the field's declared type.
_KINDS: dict[type, Kind] = {
    bool: Flag(),
    int: Count(minimum=-math.inf),
    float: Float(),
    str: Text(),
}


@lru_cache(maxsize=None)
def _field_kinds(cls: type) -> dict[str, Kind]:
    """The kind of each scalar field of a spec type, by field name."""
    hints = typing.get_type_hints(cls)
    kinds = {}
    for field in dataclasses.fields(cls):
        declared = hints[field.name]
        nullable = False
        if typing.get_origin(declared) in (typing.Union, types.UnionType):
            members = [t for t in typing.get_args(declared) if t is not type(None)]
            nullable = len(members) == 1
            declared = members[0] if nullable else None
        kind = _KINDS.get(declared)
        if kind is not None:
            kinds[field.name] = Optional(kind) if nullable else kind
    return kinds


def cell_to_wire(spec: RunSpec) -> dict:
    """Serialize one run spec to its JSON wire object."""
    if not is_dataclass(spec):
        raise ConfigurationError(
            f"only dataclass specs can cross the wire, "
            f"got {type(spec).__name__}"
        )
    return {
        "wire_version": WIRE_VERSION,
        "kind": spec.kind,
        "fields": asdict(spec),
    }


def cell_from_wire(raw: Mapping[str, Any]) -> RunSpec:
    """Rebuild a run spec from its wire object (inverse of to_wire)."""
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"wire cell must be a JSON object, got {type(raw).__name__}"
        )
    version = raw.get("wire_version", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ConfigurationError(
            f"unsupported cell wire_version {version!r} "
            f"(this worker speaks {WIRE_VERSION})"
        )
    kind = raw.get("kind")
    if not isinstance(kind, str):
        raise ConfigurationError("wire cell is missing its 'kind' tag")
    fields = raw.get("fields")
    if not isinstance(fields, Mapping):
        raise ConfigurationError(
            f"wire cell for kind {kind!r} needs a 'fields' object"
        )
    cls = spec_type_for(kind)
    kinds = _field_kinds(cls)
    for name, value in fields.items():
        if name in kinds:
            try:
                kinds[name].decode(value, f"fields.{name}", None)
            except CheckpointError as error:
                raise ConfigurationError(
                    f"wire cell for kind {kind!r}: {error}"
                ) from None
    try:
        spec = cls(**{str(name): value for name, value in fields.items()})
    except TypeError as error:
        raise ConfigurationError(
            f"cannot rebuild {kind!r} cell from wire fields: {error}"
        ) from None
    return spec
