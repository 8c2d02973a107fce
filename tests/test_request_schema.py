"""One request schema: every entry point reaches every field the same way.

Each request field is declared once, in ``repro.api.requests``.  The
CLI's generated flags, the HTTP query-string parser and ``repro jobs
submit --set`` all read that declaration, so for every field of every
``REQUEST_TYPES`` class these tests check that:

- left out, the field takes its dataclass default on all three paths;
- given as text, one non-default value reaches the same typed value on
  all three paths.

Nothing here runs a simulation: the CLI and ``--set`` arguments are
only parsed, and the query string goes through the service's parser.
"""

from __future__ import annotations

import dataclasses
from urllib.parse import urlencode

import pytest

from repro.api.requests import (
    REQUEST_SCHEMA,
    REQUEST_TYPES,
    request_from_dict,
    request_from_text,
)
from repro.api.service import _params_from_query
from repro.cli import (
    _build_parser,
    _job_request_from_flags,
    _request_from_args,
    main,
)
from repro.errors import ConfigurationError, ReproError

#: Per request type and field: a non-default text value and the typed
#: value it must produce.
SAMPLES = {
    "simulate": {
        "mix": ("W2", "W2"),
        "policy": ("ts", "ts"),
        "cooling": ("FDHS_1.0", "FDHS_1.0"),
        "ambient": ("integrated", "integrated"),
        "copies": ("3", 3),
    },
    "server": {
        "platform": ("SR1500AL", "SR1500AL"),
        "mix": ("W3", "W3"),
        "policy": ("bw", "bw"),
        "copies": ("3", 3),
    },
    "compare": {
        "mix": ("W2", "W2"),
        "cooling": ("AOHS_1.0", "AOHS_1.0"),
        "copies": ("3", 3),
    },
    "campaign": {
        "grid": ("ch5", "ch5"),
        "mixes": ("W1,W2", ("W1", "W2")),
        "policies": ("ts,acg", ("ts", "acg")),
        "variants": ("AOHS_1.0,FDHS_1.0", ("AOHS_1.0", "FDHS_1.0")),
        "copies": ("3", 3),
        "jobs": ("4", 4),
    },
    "scenarios": {
        "names": ("idle-burst,cold-aisle", ("idle-burst", "cold-aisle")),
        "copies": ("3", 3),
        "jobs": ("4", 4),
    },
}

#: Fields every request of a type must name (their default is refused).
REQUIRED = {"scenarios": {"names": "idle-burst"}}


def _dataclass_defaults(cls: type) -> dict:
    return {field.name: field.default for field in dataclasses.fields(cls)}


def _via_cli(type_tag: str, texts: dict[str, str]):
    argv = ["scenarios", "run"] if type_tag == "scenarios" else [type_tag]
    for name, text in texts.items():
        if type_tag == "scenarios" and name == "names":
            argv += text.split(",")
        elif type_tag == "campaign" and name == "variants":
            argv += ["--coolings", text]  # the ch4 grid's spelling
        else:
            argv += [f"--{name}", text]
    return _request_from_args(_build_parser().parse_args(argv))


def _via_http(type_tag: str, texts: dict[str, str]):
    return request_from_text(type_tag, _params_from_query(urlencode(texts)))


def _via_set(type_tag: str, texts: dict[str, str]):
    argv = ["jobs", "submit", "--url", "http://127.0.0.1:1", "--type", type_tag]
    for name, text in texts.items():
        argv += ["--set", f"{name}={text}"]
    wire = _job_request_from_flags(_build_parser().parse_args(argv))
    return request_from_dict(wire)


PATHS = (_via_cli, _via_http, _via_set)


def test_samples_cover_every_field_of_every_request_type():
    assert set(SAMPLES) == set(REQUEST_TYPES)
    for type_tag, cls in REQUEST_TYPES.items():
        names = [field.name for field in dataclasses.fields(cls)]
        assert list(SAMPLES[type_tag]) == names, type_tag
        assert list(REQUEST_SCHEMA[cls]) == names, type_tag


@pytest.mark.parametrize("type_tag", sorted(REQUEST_TYPES))
@pytest.mark.parametrize("build", PATHS, ids=lambda build: build.__name__)
def test_omitted_fields_take_the_dataclass_default(type_tag, build):
    cls = REQUEST_TYPES[type_tag]
    required = REQUIRED.get(type_tag, {})
    request = build(type_tag, dict(required))
    assert type(request) is cls
    for name, default in _dataclass_defaults(cls).items():
        if name not in required:
            assert getattr(request, name) == default, name


@pytest.mark.parametrize("type_tag, name", [
    (type_tag, name) for type_tag in SAMPLES for name in SAMPLES[type_tag]
])
def test_one_text_value_reaches_the_same_typed_value(type_tag, name):
    text, expected = SAMPLES[type_tag][name]
    cls = REQUEST_TYPES[type_tag]
    assert expected != _dataclass_defaults(cls)[name]
    texts = {**REQUIRED.get(type_tag, {}), name: text}
    requests = [build(type_tag, texts) for build in PATHS]
    for request in requests:
        assert getattr(request, name) == expected
    assert requests[0] == requests[1] == requests[2]


def test_required_names_refused_on_every_path():
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["scenarios", "run"])
    for build in (_via_http, _via_set):
        with pytest.raises(ConfigurationError, match="at least one name"):
            build("scenarios", {})


@pytest.mark.parametrize("build", PATHS, ids=lambda build: build.__name__)
def test_bad_text_fails_the_same_way_on_every_path(build):
    with pytest.raises(ConfigurationError, match="copies must be an integer"):
        build("simulate", {"copies": "two"})
    with pytest.raises(ReproError, match="unknown workload mix 'W99'"):
        build("simulate", {"mix": "W99"})
    with pytest.raises(ReproError, match="unknown workload mix 'W99'"):
        build("campaign", {"mixes": "W1,W99"})


def test_set_values_are_text_not_json():
    """``--set`` parses by field kind; JSON literals are not decoded."""
    with pytest.raises(ReproError, match="unknown workload mix"):
        _via_set("campaign", {"mixes": '["W1"]'})
    with pytest.raises(ConfigurationError, match="unknown simulate request"):
        _via_set("simulate", {"mox": "W1"})


def test_cli_bad_count_is_one_clean_error_line(capsys):
    assert main(["simulate", "--copies", "two"]) == 2
    err = capsys.readouterr().err
    assert err == "error: copies must be an integer, got 'two'\n"
