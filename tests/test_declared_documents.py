"""Every declared class, fuzzed from its declarations.

A dataclass whose fields are declared with :func:`repro.engine.codec.domain`
is a document: an input checked when it is built, or a record that
crosses a process, disk or HTTP boundary.  The classes are found by
walking ``src/repro``, so a new declared class is covered here by
default, and one Hypothesis strategy builder draws a document of any of
them from its declared kinds.  For each class:

- a valid document decodes, and what it encodes to round-trips byte for
  byte;
- a one-field corruption (the wrong type, a missing key, a non-finite
  number, a value out of domain: ``_bad_values`` of
  ``tests/test_request_schema.py``) raises the class's declared error
  naming the field.  A class checked at construction (it has a
  ``__post_init__``) is an input, refused with a
  :class:`~repro.errors.ConfigurationError`; any other is a stored
  record, refused with a :class:`~repro.errors.CheckpointError`.

Three boundaries are driven too: a corrupted job submit body is a 400
over HTTP, a corrupted cache record a miss, and a corrupted job record
file an unreadable record.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import pkgutil
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

import repro
from repro.analysis.campaigns import CAMPAIGN_GRIDS
from repro.api import ReproService
from repro.api.requests import REQUEST_TYPES, AnyRequest, _OnGrid
from repro.campaign import JsonDirStore, MemoryStore
from repro.campaign.stores.disk import CacheRecord
from repro.engine import codec
from repro.errors import CheckpointError, ConfigurationError
from repro.jobs import JobsManager, JobStore
from repro.jobs.scheduler import JobSubmit
from repro.jobs.store import StoredJob

from test_request_schema import _bad_values


def _walk() -> tuple[list[type], dict[type, object]]:
    """Every dataclass under ``src/repro`` with a declared field, and
    the first module-level instance of each class (a registry's values
    count) as its sample."""
    found, samples = {}, {}
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(module.name)).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.name
                and codec.fields_of(value)
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
            items = value.values() if isinstance(value, dict) else [value]
            for item in items:
                samples.setdefault(type(item), item)
    return [found[name] for name in sorted(found)], samples


CLASSES, _SAMPLES = _walk()


def _error(cls: type) -> type:
    return ConfigurationError if hasattr(cls, "__post_init__") else CheckpointError


def _sample(cls: type):
    """The class at its defaults, else a module-level instance, else
    None (a document with no defaults is drawn whole)."""
    try:
        return cls()
    except (TypeError, ConfigurationError):
        return _SAMPLES.get(cls)


def _encode(obj) -> dict:
    """An object's document: its ``to_dict`` when it has one (an
    envelope omits a None ``single_flight``), else its fields."""
    to_dict = getattr(obj, "to_dict", None)
    return codec.state_dict(obj) if to_dict is None else to_dict()


def _bytes(document: dict) -> bytes:
    """Canonical bytes; an ``Instance`` value (never on a wire) by repr."""
    return json.dumps(document, sort_keys=True, default=repr).encode()


_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
)


def _values(kind: codec.Kind, owner, name: str) -> st.SearchStrategy:
    """Valid encoded values of ``kind`` for field ``name``; ``owner``
    holds the document's earlier fields and the class's sample."""
    if isinstance(kind, codec.Optional):
        return st.one_of(st.none(), _values(kind.kind, owner, name))
    if isinstance(kind, codec.Float):
        low = kind.minimum if math.isfinite(kind.minimum) else -1e6
        high = kind.maximum if math.isfinite(kind.maximum) else low + 2e6
        return st.floats(
            low, high, exclude_min=kind.strict,
            allow_nan=False, allow_infinity=False,
        )
    if isinstance(kind, codec.Count):
        limit = kind.limit(owner) if callable(kind.limit) else kind.limit
        low = kind.minimum if math.isfinite(kind.minimum) else -1000
        return st.integers(low, min(limit - 1, low + 1000))
    if isinstance(kind, codec.Flag):
        return st.booleans()
    if isinstance(kind, codec.Text):
        if kind.choices is None:
            return st.text(max_size=6)
        return st.sampled_from(sorted(kind.choices))
    if isinstance(kind, codec.Version):
        major = kind.current.partition(".")[0]
        return st.sampled_from([kind.current, f"{major}.0", f"{major}.97"])
    if isinstance(kind, codec.ListOf):
        size = None if kind.length is None else kind.length(owner)
        return st.lists(
            _values(kind.item, owner, name),
            min_size=size if size is not None else int(kind.nonempty),
            max_size=size if size is not None else 3,
        )
    if isinstance(kind, codec.Row):
        return st.tuples(*(_values(item, owner, name) for item in kind.items)).map(list)
    if isinstance(kind, codec.Object):
        item = _JSON if kind.item is None else _values(kind.item, owner, name)
        return st.dictionaries(st.text(max_size=4), item, max_size=3)
    if isinstance(kind, codec.Instance):
        return st.just(getattr(owner.sample, name))
    if isinstance(kind, codec.Record):
        return _document(kind.cls)
    if isinstance(kind, AnyRequest):
        return st.sampled_from(sorted(REQUEST_TYPES)).flatmap(
            lambda tag: _document(REQUEST_TYPES[tag]).map(
                lambda document: {"type": tag, **document}
            )
        )
    if isinstance(kind, _OnGrid):
        return _values(getattr(CAMPAIGN_GRIDS[owner.grid], kind.axis), owner, name)
    raise AssertionError(f"no valid values for {kind!r}")


@st.composite
def _document(draw, cls: type) -> dict:
    """A document of ``cls``: each field its sample's value or a drawn
    one, in declaration order (a kind may read an earlier field)."""
    sample = _sample(cls)
    owner = SimpleNamespace(sample=sample)
    document = {}
    for field in codec.fields_of(cls):
        drawn = _values(field.kind, owner, field.key)
        if sample is not None:
            kept = codec.state_dict(sample)[field.key]
            drawn = st.one_of(st.just(kept), drawn)
        document[field.key] = draw(drawn, label=field.key)
        setattr(owner, field.key, document[field.key])
    return document


def _decode(cls: type, document):
    return codec.decode_record(cls, document, cls.__name__, _error(cls))


def _valid(data, cls: type):
    """A drawn document ``cls`` accepts, and the object it decodes to;
    one a rule across fields refuses is drawn again."""
    document = data.draw(_document(cls), label="document")
    try:
        return document, _decode(cls, document)
    except _error(cls):
        reject()


_FUZZ = settings(
    max_examples=12, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def test_every_declared_class_is_found():
    """The walk finds the boundary documents, the inputs and the run
    results (a floor: a class may be added, not lost)."""
    names = {cls.__name__ for cls in CLASSES}
    assert {
        "ResultEnvelope", "Provenance", "EngineState", "JobRecord",
        "StoredJob", "CacheRecord", "JobSubmit", "RunResult",
        "ServerRunResult", "TemperatureTrace", "SimulateRequest",
        "Chapter4Spec", "SimulationConfig",
    } <= names
    assert len(CLASSES) >= 36


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
@_FUZZ
@given(data=st.data())
def test_a_valid_document_round_trips_byte_identically(cls, data):
    _, decoded = _valid(data, cls)
    encoded = _encode(decoded)
    try:
        # Through JSON text, unless an ``Instance`` value (an input
        # holding a parameter object, never on a wire) cannot be.
        encoded = json.loads(json.dumps(encoded))
    except TypeError:
        pass
    again = _decode(cls, encoded)
    assert again == decoded
    assert _bytes(_encode(again)) == _bytes(encoded)


#: A bad value that stands for removing the key.
_MISSING = object()


def _corrupt(data, cls: type, decoded, document: dict) -> tuple[str, dict]:
    """One field of ``document`` broken: a value outside its kind, or a
    required key removed."""
    fields = codec.fields_of(cls)
    field = data.draw(st.sampled_from(fields), label="field")
    owner = codec.Decoded(vars(decoded))
    bad = _bad_values(field.kind, owner)
    if field.default is codec.REQUIRED:
        bad = [*bad, _MISSING]
    value = data.draw(st.sampled_from(bad), label="bad value")
    broken = dict(document)
    if value is _MISSING:
        del broken[field.key]
    else:
        broken[field.key] = value
    return field.key, broken


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
@_FUZZ
@given(data=st.data())
def test_a_one_field_corruption_raises_the_declared_error(cls, data):
    document, decoded = _valid(data, cls)
    name, broken = _corrupt(data, cls, decoded, document)
    with pytest.raises(_error(cls)) as refusal:
        _decode(cls, broken)
    assert name in str(refusal.value)


# ---------------------------------------------------------------------------
# The boundaries: HTTP, the cache, the job store
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def jobs_service(tmp_path_factory):
    """A jobs service whose scheduler never starts: nothing runs."""
    manager = JobsManager(
        str(tmp_path_factory.mktemp("jobs")), store=MemoryStore()
    )
    service = ReproService(port=0, jobs=manager)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    service.shutdown()
    service.server_close()
    thread.join(timeout=5)


@_FUZZ
@given(data=st.data())
def test_a_corrupted_submit_body_is_a_400(jobs_service, data):
    document, decoded = _valid(data, JobSubmit)
    name, broken = _corrupt(data, JobSubmit, decoded, document)
    request = urllib.request.Request(
        jobs_service.url + "/v1/jobs", data=json.dumps(broken).encode()
    )
    with pytest.raises(urllib.error.HTTPError) as refusal:
        urllib.request.urlopen(request, timeout=30)
    assert refusal.value.code == 400
    assert name in json.loads(refusal.value.read())["error"]


@_FUZZ
@given(data=st.data())
def test_a_corrupted_cache_record_is_a_miss(tmp_path_factory, data):
    store = JsonDirStore(tmp_path_factory.mktemp("cache"))
    document, decoded = _valid(data, CacheRecord)
    _, broken = _corrupt(data, CacheRecord, decoded, document)
    for key, record in (("ch4-good", document), ("ch4-bad", broken)):
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))
    assert store.get("ch4-good") == decoded.payload
    assert store.get("ch4-bad") is None


@_FUZZ
@given(data=st.data())
def test_a_corrupted_job_record_file_is_unreadable(tmp_path_factory, data):
    store = JobStore(tmp_path_factory.mktemp("jobs"))
    document, decoded = _valid(data, StoredJob)
    _, broken = _corrupt(data, StoredJob, decoded, document)
    (store.root / "job-good.json").write_text(json.dumps(document))
    (store.root / "job-bad.json").write_text(json.dumps(broken))
    assert store.load("job-good") == decoded.job
    assert store.load("job-bad") is None
