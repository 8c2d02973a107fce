"""Versioned result envelopes — the wire format of the client API.

Every run executed through :class:`~repro.api.client.ReproClient` (and
therefore every spec-backed CLI ``--json`` invocation and every HTTP
response of ``python -m repro serve``) is reported as one
:class:`ResultEnvelope` (the CLI's ``homogeneous --json``, which has
no cacheable spec, emits a plain versioned summary instead):

- ``schema_version`` — the envelope schema, ``"<major>.<minor>"``.
  Minor bumps only add fields; consumers must accept unknown keys.
  Major bumps may rename or remove fields; :meth:`ResultEnvelope.from_dict`
  rejects a foreign major outright.
- ``kind`` / ``scenario`` — the spec kind (``ch4``/``ch5``) and the
  scenario label of the cell.
- ``request`` — an echo of the request that produced the result.
  Single-run envelopes (simulate/server/compare) echo the replayable
  typed request; campaign/scenario cells echo the fully resolved spec
  under type ``"cell"`` (descriptive, not replayable).
- ``metrics`` — the run's scalar outputs (runtime, energies, peak
  temperatures, ...), including the derived power averages.
- ``provenance`` — cache hit/miss, the spec cache key, the engine's
  ``CACHE_VERSION``, and the wall seconds spent computing (0 on a hit,
  so a warm cell serializes deterministically: the same request yields
  byte-identical JSON from the CLI and the HTTP service).  Since 1.1
  it may additionally carry ``single_flight`` (``"coalesced"`` when
  the result was served by another thread's in-flight compute),
  omitted — not null — when absent, so plain warm envelopes remain
  byte-identical.  Envelopes from older emitters may also carry a
  ``shard`` field; readers drop it like any unknown key.

Both classes declare their fields (:mod:`repro.engine.codec`); a
mistyped or missing one is a :class:`~repro.errors.ConfigurationError`
naming it.  ``to_dict``/``from_dict`` round-trip losslessly;
:meth:`to_json` is the canonical serialization (sorted keys, two-space
indent) shared by every emitter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.campaign.spec import CACHE_VERSION
from repro.engine.codec import (
    Float,
    Object,
    Optional,
    Record,
    Text,
    Version,
    check_domain,
    decode_record,
    domain,
)
from repro.errors import ConfigurationError

#: Envelope schema version.  Bump the minor for additive changes, the
#: major for breaking ones (see the module docstring for the rules).
#: 1.1: optional ``single_flight`` provenance field (and ``shard``,
#: no longer emitted).
#: 1.2: the jobs/healthz/metrics document family (``/v1/jobs`` job
#: documents, ``/v1/healthz``, ``/metrics?format=json``); result
#: envelopes themselves are unchanged.
SCHEMA_VERSION = "1.2"


@dataclass(frozen=True)
class Provenance:
    """Where a result came from and what it cost to produce."""

    #: ``"hit"`` when the cache served the result, ``"miss"`` otherwise.
    cache: str = domain(Text(("hit", "miss")))
    #: The spec's content-hash cache key (``<kind>-<sha256 prefix>``).
    cache_key: str = domain(Text())
    #: Engine cache version the key was computed under.
    cache_version: str = domain(Text(), CACHE_VERSION)
    #: Wall seconds spent executing the run; 0.0 for a cache hit.
    compute_seconds: float = domain(Float(0.0), 0.0)
    #: ``"coalesced"`` when this result was served by another thread's
    #: in-flight compute of the same cell; None (omitted) otherwise.
    single_flight: str | None = domain(Optional(Text(("coalesced",))), None)

    __post_init__ = check_domain

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready).

        The optional 1.1 field is omitted (not emitted as null) when
        absent, keeping plain warm envelopes byte-identical to 1.0
        emitters modulo ``schema_version``.
        """
        document = {
            "cache": self.cache,
            "cache_key": self.cache_key,
            "cache_version": self.cache_version,
            "compute_seconds": self.compute_seconds,
        }
        if self.single_flight is not None:
            document["single_flight"] = self.single_flight
        return document

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Provenance":
        """Rebuild provenance from its dict form; unknown keys are
        dropped (a same-major emitter may add fields)."""
        return decode_record(cls, raw, "provenance", ConfigurationError)


@dataclass(frozen=True, kw_only=True)
class ResultEnvelope:
    """One versioned, machine-readable result record."""

    #: Checked first, so a foreign major is refused before any field.
    schema_version: str = domain(
        Version(SCHEMA_VERSION), SCHEMA_VERSION, required=True
    )
    kind: str = domain(Text())
    scenario: str | None = domain(Optional(Text()), None)
    request: dict = domain(Object())
    metrics: dict = domain(Object())
    provenance: Provenance = domain(Record(Provenance))

    __post_init__ = check_domain

    def to_dict(self) -> dict:
        """Plain-dict form; the inverse of :meth:`from_dict`."""
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "scenario": self.scenario,
            "request": dict(self.request),
            "metrics": dict(self.metrics),
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ResultEnvelope":
        """Rebuild an envelope, enforcing schema compatibility."""
        return decode_record(cls, raw, "envelope", ConfigurationError)

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, two-space indent).

        Every emitter — ``--json`` CLI output, the HTTP service — uses
        this one serialization, which is what makes "same request, warm
        cache" responses byte-identical across transports.
        """
        return dumps_canonical(self.to_dict())


def dumps_canonical(document: Any) -> str:
    """The one canonical JSON serialization used by all emitters."""
    return json.dumps(document, sort_keys=True, indent=2)


def results_document(envelopes: list[ResultEnvelope]) -> dict:
    """A versioned multi-result document (``compare``/``campaign``)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "results": [envelope.to_dict() for envelope in envelopes],
    }


def scenarios_document(descriptors: list[dict]) -> dict:
    """A versioned scenario-listing document (``/v1/scenarios``)."""
    return {"schema_version": SCHEMA_VERSION, "scenarios": descriptors}
