"""Run specifications and the runner registry.

A *run spec* is a frozen dataclass describing one experiment: it
carries a ``kind`` class attribute naming its runner and a stable
``key()`` used for caching and deduplication.  The registry maps each
kind to a :class:`Runner` — the factory of the kind's stepping engine
plus the JSON codecs that let results round-trip through a
:class:`~repro.campaign.stores.ResultStore`.  Every cell runs on its
engine through :func:`repro.campaign.engine.run_cell`.

Registering a runner in the module that defines its spec class makes
the pairing survive process boundaries: unpickling a spec in a pool
worker imports the defining module, which re-registers the runner.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Protocol, runtime_checkable

from repro.errors import ConfigurationError

#: Bump when model changes invalidate cached results.
CACHE_VERSION = "v2"


@runtime_checkable
class RunSpec(Protocol):
    """Anything the campaign engine can execute.

    Implementations are frozen dataclasses so they hash, compare, and
    pickle cleanly (pool workers receive specs by pickle).
    """

    #: Registry name of the runner that executes this spec.
    kind: ClassVar[str]

    def key(self) -> str:
        """Stable cache key of this spec."""
        ...


#: Instance attribute holding a spec's computed key; it is no field,
#: so it is never hashed itself.
_KEY_ATTR = "_spec_key"


def _key_fields(spec: RunSpec) -> dict:
    excluded = getattr(spec, "KEY_EXCLUDED_FIELDS", ())
    # Iterate a copy: another thread keying the same spec may add
    # ``_KEY_ATTR`` to its ``__dict__`` meanwhile (the copy is one C
    # call, which no thread switch interrupts).
    return {
        k: v
        for k, v in dict(spec.__dict__).items()
        if k not in excluded and k != _KEY_ATTR
    }


def spec_key(spec: RunSpec) -> str:
    """Default cache key: ``<kind>-<sha256 of the field payload>``.

    The digest covers the cache version, the kind, and every dataclass
    field, so two specs collide only when they describe the same run.
    Fields named in the spec class's ``KEY_EXCLUDED_FIELDS`` are pure
    presentation metadata (e.g. the scenario label) and are left out,
    so differently-labeled descriptions of the same physical run share
    one cache entry.

    A spec is frozen, so its key is hashed once and kept on the
    instance: a warm request asks for it at lookup and again for the
    envelope's provenance.
    """
    key = spec.__dict__.get(_KEY_ATTR)
    if key is None:
        payload = json.dumps(_key_fields(spec), sort_keys=True, default=str)
        digest = hashlib.sha256(
            f"{CACHE_VERSION}|{spec.kind}|{payload}".encode()
        ).hexdigest()
        key = f"{spec.kind}-{digest[:20]}"
        # Frozen dataclasses refuse setattr; the key is no field.
        object.__setattr__(spec, _KEY_ATTR, key)
    return key


def spec_fields(spec: RunSpec) -> dict:
    """The spec's key-relevant fields in JSON-native form.

    Exactly the fields :func:`spec_key` hashes, round-tripped through
    JSON so the dict can be persisted and later re-hashed to the
    identical digest (tuples become lists, exotic values their ``str``
    form — the same normalizations ``json.dumps(default=str)`` applies
    while hashing).
    """
    return json.loads(json.dumps(_key_fields(spec), sort_keys=True, default=str))


def spec_meta(spec: RunSpec) -> dict:
    """The cache metadata a disk store persists beside a payload.

    The version the key was computed under, the kind, and the key
    fields, so a record says which run it holds.
    """
    return {
        "cache_version": CACHE_VERSION,
        "kind": spec.kind,
        "spec": spec_fields(spec),
    }


@dataclass(frozen=True)
class Runner:
    """Engine factory + serialization for one spec kind."""

    kind: str
    #: Builds the :class:`repro.engine.SteppingEngine` that runs one
    #: spec (``make_engine(spec)``).  Every cell —
    #: whole, time-sliced, checkpointed or resumed — runs on it.
    make_engine: Callable[..., Any]
    #: Result object -> JSON-serializable dict.
    encode: Callable[[Any], dict]
    #: JSON dict -> result object (inverse of ``encode``).
    decode: Callable[[dict], Any]


_RUNNERS: dict[str, Runner] = {}


def register_runner(
    kind: str,
    make_engine: Callable[..., Any],
    *,
    encode: Callable[[Any], dict],
    decode: Callable[[dict], Any],
) -> Runner:
    """Register (or re-register) the runner for ``kind``.

    ``make_engine(spec)`` builds the stepping
    engine that runs one spec; it is required, because
    :func:`~repro.campaign.engine.run_cell` runs every cell on its
    engine.  Re-registration is allowed so module reloads stay
    idempotent.
    """
    if not callable(make_engine):
        raise ConfigurationError(
            f"runner for kind {kind!r} needs a make_engine factory"
        )
    runner = Runner(
        kind=kind, make_engine=make_engine, encode=encode, decode=decode
    )
    _RUNNERS[kind] = runner
    return runner


def engine_for_spec(spec: RunSpec) -> Any:
    """A fresh stepping engine for one spec's run."""
    return runner_for(spec.kind).make_engine(spec)


def runner_for(kind: str) -> Runner:
    """Look up the runner for a spec kind."""
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ConfigurationError(
            f"no runner registered for spec kind {kind!r} "
            f"(registered: {sorted(_RUNNERS) or 'none'})"
        )
    return runner


def registered_kinds() -> tuple[str, ...]:
    """Names of all registered spec kinds."""
    return tuple(sorted(_RUNNERS))
