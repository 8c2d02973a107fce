"""One request schema: every entry point reaches every field the same way.

Each request field is declared once, in ``repro.api.requests``.  The
CLI's generated flags, the HTTP query-string parser and ``repro jobs
submit --set`` all read that declaration, so for every field of every
``REQUEST_TYPES`` class these tests check that:

- left out, the field takes its dataclass default on all three paths;
- given as text, one non-default value reaches the same typed value on
  all three paths.

The last two tests draw a bad value for one declared field (NaN,
+-inf, the wrong type, out of range, an unknown name) and expect the
same :class:`ConfigurationError` naming the field from the Python
constructor of a run spec (a library scenario is one), and, for a
request field, from HTTP GET and POST against a live service, CLI
flags and ``jobs --set``.

Nothing here runs a simulation: the CLI and ``--set`` arguments are
only parsed, the query string goes through the service's parser, and
every request sent to the live service is refused before it runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import threading
import urllib.error
import urllib.request
from functools import partial
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.campaigns import CAMPAIGN_GRIDS
from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.api import ReproService
from repro.api.requests import (
    REQUEST_SCHEMA,
    REQUEST_TYPES,
    CampaignRequest,
    ScenarioRequest,
    request_from_dict,
    request_from_text,
    split_names,
)
from repro.api.service import _params_from_query
from repro.engine import codec
from repro.scenarios import get_scenario
from repro.cli import (
    _build_parser,
    _job_request_from_flags,
    _request_from_args,
    main,
)
from repro.errors import ConfigurationError, ReproError
from repro.params.emergency import SIMULATION_LEVELS

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
        with pytest.raises(ConfigurationError, match="names must list at least one"):
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


# ---------------------------------------------------------------------------
# One declared domain per field: bad values, refused alike everywhere
# ---------------------------------------------------------------------------

NAN, INF = math.nan, math.inf


def _bad_values(kind: codec.Kind, owner: object) -> list:
    """Typed values outside ``kind``, for a field of ``owner``'s class."""
    if isinstance(kind, codec.Optional):
        return [bad for bad in _bad_values(kind.kind, owner) if bad is not None]
    if isinstance(kind, codec.Float):
        bad = [NAN, INF, -INF, "1.0", True, None]
        if kind.minimum > -INF:
            bad.append(kind.minimum if kind.strict else kind.minimum - 1)
        if kind.maximum < INF:
            bad.append(kind.maximum + 1)
        return bad
    if isinstance(kind, codec.Count):
        limit = kind.limit(owner) if callable(kind.limit) else kind.limit
        bad = [NAN, INF, -INF, "2", True, 1.5, None, kind.minimum - 1]
        return bad + ([limit] if limit < INF else [])
    if isinstance(kind, codec.Flag):
        return ["no", 1, NAN, None]
    assert isinstance(kind, codec.Text), kind
    return [5, NAN, True, None] + (["nope"] if kind.choices else [])


#: Values a ch4 field's kind accepts but the spec refuses across
#: fields: on the default "ts" policy, a release point at or above the
#: table's TDP.
_CH4_RULES = {
    "amb_trp_c": [SIMULATION_LEVELS.amb_tdp_c, SIMULATION_LEVELS.amb_tdp_c + 90.0],
    "dram_trp_c": [SIMULATION_LEVELS.dram_tdp_c, SIMULATION_LEVELS.dram_tdp_c + 1.0],
}


def _spec_fields(spec: type, make) -> tuple:
    """(make, {field: bad values}) for one construction target."""
    owner = spec()
    rules = _CH4_RULES if spec is Chapter4Spec else {}
    return make, {
        f.name: _bad_values(f.metadata["domain"], owner) + rules.get(f.name, [])
        for f in dataclasses.fields(spec)
    }


def _crossing(name: str):
    """A maker of library scenario ``name`` with fields replaced."""
    return partial(dataclasses.replace, get_scenario(name).spec)


#: Construction target -> (make, {field: bad values}).
_TARGETS = {
    "ch4": _spec_fields(Chapter4Spec, Chapter4Spec),
    "ch5": _spec_fields(Chapter5Spec, Chapter5Spec),
    "scenario-ch4": _spec_fields(Chapter4Spec, _crossing("hot-ambient")),
    "scenario-ch5": _spec_fields(Chapter5Spec, _crossing("server-hot-inlet")),
}


def _naming(field: str) -> str:
    """A refusal that names ``field`` (or one of its list items)."""
    return rf"\b{re.escape(field)}(\.\d+)? must\b"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_bad_spec_or_scenario_value_is_refused_at_construction(data):
    target = data.draw(st.sampled_from(sorted(_TARGETS)), label="target")
    make, fields = _TARGETS[target]
    name = data.draw(st.sampled_from(sorted(fields)), label="field")
    value = data.draw(st.sampled_from(fields[name]), label="value")
    with pytest.raises(ConfigurationError, match=_naming(name)):
        make(**{name: value})


@pytest.mark.parametrize("spec, name, value", [
    (Chapter4Spec, "interaction", NAN),
    (Chapter4Spec, "inlet_delta_c", NAN),
    (Chapter4Spec, "inlet_delta_c", INF),
    (Chapter4Spec, "bandwidth_scale", NAN),
    (Chapter4Spec, "bandwidth_scale", INF),
    (Chapter4Spec, "channels", True),
    (Chapter4Spec, "record_trace", "no"),
    (Chapter4Spec, "ambient", "bogus"),
    (Chapter4Spec, "dtm_interval_s", NAN),
    (Chapter4Spec, "duty_period_s", INF),
    (Chapter5Spec, "ambient_override_c", NAN),
    (Chapter4Spec, "amb_trp_c", 200.0),
    (Chapter4Spec, "dram_trp_c", 85.0),
])
def test_values_that_used_to_run_are_refused_at_construction(spec, name, value):
    """Each of these ran (to a NaN ambient, or the wrong model),
    escaped as a bare ValueError/OverflowError, or (a DTM-TS release
    point at or above the TDP) was refused only when the policy was
    built."""
    with pytest.raises(ConfigurationError, match=_naming(name)):
        spec(**{name: value})


def test_release_points_are_ignored_off_the_ts_policy():
    """Campaigns cross the throttle-storm scenario with every policy;
    only DTM-TS reads the release points."""
    assert Chapter4Spec(policy="bw", amb_trp_c=200.0).amb_trp_c == 200.0
    dataclasses.replace(get_scenario("throttle-storm").spec, policy="acg")


def _request_cases(kind: codec.Kind, good: object) -> list[tuple]:
    """``(typed value, text or None)`` outside a request field's kind,
    whose sample value is ``good``; None marks a value the text
    surfaces cannot spell."""
    if isinstance(kind, codec.Count):
        return [
            (0, "0"), (True, "true"), (1.5, "1.5"), (NAN, "nan"),
            (INF, "inf"), (-INF, "-inf"), ("two", "two"),
        ]
    if isinstance(kind, codec.Text):
        return [("nope", "nope"), (5, "5"), (NAN, "nan"), (True, "true"), (None, None)]
    # A name list: a bad name after a good one, a bare name, a non-name.
    item = good[0]
    cases = [((item, "nope"), f"{item},nope"), (item, None), ((5,), None)]
    return cases if isinstance(kind, codec.Optional) else [((), None), *cases]


#: Request type -> {field: bad cases}, for every field of every request
#: (on the default ch4 grid, ``policies`` and ``variants`` take that
#: grid's policies and coolings).
_REQUEST_FIELDS = {
    type_tag: {
        name: _request_cases(spec.kind, SAMPLES[type_tag][name][1])
        for name, spec in REQUEST_SCHEMA[cls].items()
    }
    for type_tag, cls in REQUEST_TYPES.items()
}
_ROUTE = {"scenarios": "/v1/scenarios/run"}


@pytest.fixture(scope="module")
def live_service():
    svc = ReproService(port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)


def _http_error(svc: ReproService, path: str, body: dict | None = None) -> str:
    """The ``error`` of the JSON 400 the service answers."""
    data = None if body is None else json.dumps(body).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(urllib.request.Request(svc.url + path, data=data))
    assert excinfo.value.code == 400
    return json.loads(excinfo.value.read())["error"]


def _cli_error(type_tag: str, texts: dict[str, str]) -> str:
    argv = ["scenarios", "run"] if type_tag == "scenarios" else [type_tag]
    for name, text in texts.items():
        if type_tag == "scenarios" and name == "names":
            argv += text.split(",")
        elif type_tag == "campaign" and name == "variants":
            grid = CAMPAIGN_GRIDS[texts.get("grid", "ch4")]
            argv.append(f"{grid.variant_flag}={text}")
        else:
            argv.append(f"--{name}={text}")
    with pytest.raises(ConfigurationError) as excinfo:
        _request_from_args(_build_parser().parse_args(argv))
    return str(excinfo.value)


def _set_error(type_tag: str, texts: dict[str, str]) -> str:
    argv = ["jobs", "submit", "--url", "http://127.0.0.1:1", "--type", type_tag]
    for name, text in texts.items():
        argv += ["--set", f"{name}={text}"]
    with pytest.raises(ConfigurationError) as excinfo:
        _job_request_from_flags(_build_parser().parse_args(argv))
    return str(excinfo.value)


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_a_bad_request_field_fails_alike_on_every_surface(live_service, data):
    type_tag = data.draw(st.sampled_from(sorted(_REQUEST_FIELDS)), label="type")
    fields = _REQUEST_FIELDS[type_tag]
    name = data.draw(st.sampled_from(sorted(fields)), label="field")
    typed, text = data.draw(st.sampled_from(fields[name]), label="value")
    required = {} if name in REQUIRED.get(type_tag, {}) else REQUIRED.get(type_tag, {})
    cls = REQUEST_TYPES[type_tag]
    route = _ROUTE.get(type_tag, f"/v1/{type_tag}")

    typed_fields = {key: (value,) for key, value in required.items()}
    with pytest.raises(ConfigurationError, match=_naming(name)):
        cls(**typed_fields, **{name: typed})
    posted = _http_error(live_service, route, {**typed_fields, name: typed})
    assert re.search(_naming(name), posted), posted
    if text is None:
        return
    texts = {**required, name: text}
    errors = {
        _http_error(live_service, f"{route}?{urlencode(texts)}"),
        _cli_error(type_tag, texts),
        _set_error(type_tag, texts),
    }
    assert len(errors) == 1, errors
    assert re.search(_naming(name), errors.pop())


@pytest.mark.parametrize("texts, name", [
    ({"grid": "ch5", "policies": "bw,ts"}, "policies"),
    ({"grid": "ch4", "policies": "comb,warp"}, "policies"),
    ({"grid": "ch5", "variants": "PE1950,AOHS_1.5"}, "variants"),
    ({"grid": "ch4", "variants": "all"}, "variants"),
    ({"grid": "scenarios", "variants": "all,warp"}, "variants"),
])
def test_a_policy_or_variant_outside_its_grid_fails_alike_on_every_surface(
    live_service, texts, name
):
    """Each grid has its own policies and third axis: a value outside
    the chosen grid's is refused before any work, naming the field."""
    typed = {key: split_names(text) if key != "grid" else text
             for key, text in texts.items()}
    with pytest.raises(ConfigurationError, match=_naming(name)):
        CampaignRequest(**typed)
    errors = {
        _http_error(live_service, "/v1/campaign", typed),
        _http_error(live_service, f"/v1/campaign?{urlencode(texts)}"),
        _cli_error("campaign", texts),
        _set_error("campaign", texts),
    }
    assert len(errors) == 1, errors
    assert re.search(_naming(name), errors.pop())


def test_all_is_a_variant_of_the_scenarios_grid_only():
    assert CampaignRequest(grid="scenarios", variants=("all",)).variants == ("all",)
    assert ScenarioRequest(names=("all", "idle-burst")).names == ("all", "idle-burst")
