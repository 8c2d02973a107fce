"""The stable typed client API: envelopes, requests, client façade."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.api import (
    SCHEMA_VERSION,
    CampaignRequest,
    CompareRequest,
    Provenance,
    ReproClient,
    ResultEnvelope,
    ScenarioRequest,
    ServerRequest,
    SimulateRequest,
    metrics_from_result,
    request_from_dict,
    request_to_dict,
    results_document,
)
from repro.analysis.specs import (
    CHAPTER4_POLICIES,
    CHAPTER4_POLICY_CHOICES,
    Chapter4Spec,
)
from repro.api.client import cell_envelope
from repro.campaign import MemoryStore, run, run_cell
from repro.campaign import spec as spec_module
from repro.engine.codec import Version
from repro.errors import ConfigurationError
from repro.testbed.platforms import PE1950, PLATFORMS, SR1500AL


# ---------------------------------------------------------------------------
# Envelope round-trip and schema compatibility
# ---------------------------------------------------------------------------


def _sample_envelope() -> ResultEnvelope:
    return ResultEnvelope(
        kind="ch4",
        scenario="ch4:AOHS_1.5:W1:ts",
        request={"type": "simulate", "mix": "W1", "policy": "ts"},
        metrics={"runtime_s": 12.5, "peak_amb_c": 101.25},
        provenance=Provenance(cache="miss", cache_key="ch4-abc", compute_seconds=0.25),
    )


def test_envelope_dict_round_trip_is_identical():
    envelope = _sample_envelope()
    raw = envelope.to_dict()
    assert ResultEnvelope.from_dict(raw).to_dict() == raw
    assert ResultEnvelope.from_dict(raw) == envelope


def test_envelope_json_is_canonical_and_versioned():
    text = _sample_envelope().to_json()
    assert '"schema_version": "{}"'.format(SCHEMA_VERSION) in text
    # Canonical form: sorted keys mean "kind" precedes "metrics".
    assert text.index('"kind"') < text.index('"metrics"')


def test_envelope_rejects_foreign_major():
    raw = _sample_envelope().to_dict()
    raw["schema_version"] = "2.0"
    with pytest.raises(ConfigurationError, match="incompatible schema_version"):
        ResultEnvelope.from_dict(raw)


def test_envelope_accepts_minor_bump():
    raw = _sample_envelope().to_dict()
    raw["schema_version"] = "1.9"
    assert ResultEnvelope.from_dict(raw).schema_version == "1.9"


def test_envelope_missing_fields_rejected():
    raw = _sample_envelope().to_dict()
    del raw["metrics"], raw["provenance"]
    with pytest.raises(ConfigurationError, match="metrics is missing"):
        ResultEnvelope.from_dict(raw)


def test_envelope_requires_mapping():
    with pytest.raises(ConfigurationError, match="must be an object"):
        ResultEnvelope.from_dict(["not", "a", "dict"])


@pytest.mark.parametrize("path, value", [
    ("request", 5),
    ("metrics", [1]),
    ("provenance", 3),
    ("kind", 5),
    ("scenario", 7),
    ("provenance.compute_seconds", "x"),
    ("provenance.compute_seconds", float("nan")),
    ("provenance.cache_key", 5),
    ("provenance.single_flight", 3),
    ("provenance.cache_version", None),
])
def test_envelope_refuses_each_mistyped_field(path, value):
    """Each of these raised TypeError or was accepted (``kind: 5`` as
    ``'5'``); each is now a ConfigurationError naming the field."""
    raw = _sample_envelope().to_dict()
    *parents, name = path.split(".")
    target = raw
    for parent in parents:
        target = target[parent]
    target[name] = value
    with pytest.raises(ConfigurationError, match=rf"{re.escape(path)} must be"):
        ResultEnvelope.from_dict(raw)


def test_schema_major_parsing():
    kind = Version(SCHEMA_VERSION)

    def check(version):
        return kind.decode(version, "schema_version", None, ConfigurationError)

    assert check(SCHEMA_VERSION) == SCHEMA_VERSION
    assert check("1.0") == "1.0"
    assert Version("12.34").decode("12.0", "v", None, ConfigurationError) == "12.0"
    for malformed in ("banana", "1", "1.x", "\u00b2.0", 1.2):
        with pytest.raises(
            ConfigurationError,
            match=rf"malformed schema_version {re.escape(repr(malformed))} \(expected",
        ):
            check(malformed)
    with pytest.raises(ConfigurationError, match="incompatible schema_version"):
        check("2.0")


def test_provenance_validation():
    with pytest.raises(ConfigurationError, match="cache must be one of"):
        Provenance(cache="stale", cache_key="k")
    with pytest.raises(ConfigurationError, match="cache_key is missing"):
        Provenance.from_dict({"cache": "hit"})


def test_provenance_tolerates_future_minor_fields():
    # Minor-version rule: a same-major emitter may add fields; a 1.0
    # consumer must tolerate (and may drop) them.
    provenance = Provenance.from_dict(
        {"cache": "hit", "cache_key": "k", "worker_id": 7}
    )
    assert provenance == Provenance(cache="hit", cache_key="k")


def test_provenance_drops_retired_shard_field():
    # Envelopes from emitters that still wrote ``shard`` keep parsing.
    provenance = Provenance.from_dict(
        {"cache": "miss", "cache_key": "k", "shard": "02"}
    )
    assert provenance == Provenance(cache="miss", cache_key="k")
    assert "shard" not in provenance.to_dict()


# ---------------------------------------------------------------------------
# Request validation and dict round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("request_obj", [
    SimulateRequest(mix="W2", policy="bw+pid", cooling="FDHS_1.0", copies=3),
    ServerRequest(platform="SR1500AL", mix="W1", policy="comb", copies=1),
    CompareRequest(mix="W3", cooling="AOHS_1.0", copies=1),
    CampaignRequest(grid="ch5", mixes=("W1",), policies=("bw", "comb"),
                    variants=("PE1950",), copies=1, jobs=2),
    ScenarioRequest(names=("hot-ambient", "cold-aisle"), copies=1),
])
def test_request_dict_round_trip(request_obj):
    raw = request_to_dict(request_obj)
    assert raw["type"] == type(request_obj).TYPE
    assert request_from_dict(raw) == request_obj


@pytest.mark.parametrize("bad, match", [
    (dict(policy="warp"), "unknown ch4 policy"),
    (dict(cooling="ICE"), "unknown cooling"),
    (dict(ambient="outdoors"), "ambient must be"),
    (dict(copies=0), "copies must be >= 1"),
    (dict(copies="two"), "copies must be an integer"),
])
def test_simulate_request_validation(bad, match):
    with pytest.raises(ConfigurationError, match=match):
        SimulateRequest(**bad)


def test_server_request_validation():
    with pytest.raises(ConfigurationError, match="unknown platform"):
        ServerRequest(platform="PDP11")
    with pytest.raises(ConfigurationError, match="unknown ch5 policy"):
        ServerRequest(policy="ts")


def test_compare_request_validation():
    with pytest.raises(ConfigurationError, match="unknown cooling"):
        CompareRequest(cooling="ICE")
    cells = CompareRequest(mix="W1", copies=1).cells()
    assert [spec.policy for spec, _ in cells] == list(CHAPTER4_POLICIES)
    # Each cell is the equivalent simulate request's one cell.
    assert cells[0] == SimulateRequest(
        mix="W1", policy="no-limit", copies=1
    ).cells()[0]


def test_campaign_request_validation():
    with pytest.raises(ConfigurationError, match="unknown campaign grid"):
        CampaignRequest(grid="ch6")
    with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
        CampaignRequest(jobs=0)
    # A list is checked in place, not converted.
    request = CampaignRequest(grid="ch4", mixes=["W1"], policies=["ts"])
    assert request.mixes == ["W1"]
    ((spec, echo),) = request.cells()
    assert spec.kind == "ch4"
    assert echo == {"type": "cell", "kind": "ch4", **dataclasses.asdict(spec)}
    # A policy or variant outside the chosen grid is refused at once.
    with pytest.raises(ConfigurationError, match=r"policies\.0 must be one of"):
        CampaignRequest(grid="ch5", policies=("ts",))
    with pytest.raises(ConfigurationError, match=r"variants\.0 must be one of"):
        CampaignRequest(grid="ch4", variants=("PE1950",))


def test_campaign_request_default_axes():
    cells = CampaignRequest(grid="ch4", copies=1).cells()
    # None axes resolve to the grid defaults: every policy, mix W1.
    assert len(cells) == len(CHAPTER4_POLICY_CHOICES)
    with pytest.raises(ConfigurationError, match="zero runs"):
        CampaignRequest(grid="ch4", mixes=()).cells()


def test_scenario_request_validation():
    with pytest.raises(ConfigurationError, match="names must list at least one"):
        ScenarioRequest(names=())
    with pytest.raises(ConfigurationError, match="unknown scenario 'warp'"):
        ScenarioRequest(names=("warp",))
    cells = ScenarioRequest(names=("all",), copies=1).cells()
    assert cells == CampaignRequest(grid="scenarios", copies=1).cells()
    assert len(cells) >= 13


def test_list_axes_reject_bare_strings():
    with pytest.raises(ConfigurationError, match="mixes must be a list"):
        CampaignRequest(grid="ch4", mixes="W1")
    with pytest.raises(ConfigurationError, match="policies must be a list"):
        request_from_dict({"type": "campaign", "policies": "ts"})
    with pytest.raises(ConfigurationError, match="names must be a list"):
        ScenarioRequest(names="all")
    with pytest.raises(ConfigurationError, match="variants must be a list"):
        CampaignRequest(grid="ch4", variants=12)


def test_request_from_dict_rejects_unknowns():
    with pytest.raises(ConfigurationError, match="unknown request type"):
        request_from_dict({"type": "teleport"})
    with pytest.raises(ConfigurationError, match="unknown simulate request fields"):
        request_from_dict({"type": "simulate", "mox": "W1"})
    with pytest.raises(ConfigurationError, match="JSON object"):
        request_from_dict([1, 2, 3])
    with pytest.raises(ConfigurationError, match="not an API request"):
        request_to_dict(object())


# ---------------------------------------------------------------------------
# Client façade
# ---------------------------------------------------------------------------


def test_client_simulate_provenance_miss_then_hit():
    client = ReproClient(MemoryStore())
    request = SimulateRequest(mix="W1", policy="ts", copies=1)
    first = client.simulate(request)
    assert first.provenance.cache == "miss"
    assert first.provenance.compute_seconds > 0.0
    assert first.provenance.cache_key.startswith("ch4-")
    second = client.simulate(request)
    assert second.provenance.cache == "hit"
    assert second.provenance.compute_seconds == 0.0
    # Hit and miss envelopes agree on everything but provenance.
    assert first.metrics == second.metrics
    assert first.request == second.request
    assert second.request["type"] == "simulate"
    assert second.kind == "ch4"
    assert second.scenario == "ch4:AOHS_1.5:W1:ts"


def test_a_warm_cells_provenance_carries_its_spec_key():
    """The envelope's provenance names the key the lookup used, and the
    hashed fields are the spec's own, its label aside."""
    store = MemoryStore()
    run(Chapter4Spec(mix="W1", policy="ts", copies=1), store)
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    outcome = run_cell(spec, store)
    envelope = cell_envelope(spec, outcome, {})
    assert outcome.hit
    assert envelope.provenance.cache_key == spec.key()
    fields = spec_module.spec_fields(spec)
    assert sorted(fields) == sorted(
        f.name for f in dataclasses.fields(spec) if f.name != "scenario"
    )
    assert dataclasses.replace(spec).key() == spec.key()


def test_a_cell_is_keyed_once_per_run(monkeypatch):
    """A simulate call and each cell of a serial campaign hash their
    spec once, cold or warm: the outcome carries the key to the
    envelope and the campaign tells repeated specs apart by equality."""
    keyed = []

    def counting(spec):
        keyed.append(spec)
        return spec_module.spec_key(spec)

    monkeypatch.setattr("repro.analysis.specs.spec_key", counting)
    client = ReproClient(MemoryStore())
    request = SimulateRequest(mix="W1", policy="ts", copies=1)
    grid = CampaignRequest(
        grid="ch4", mixes=("W1",), policies=("ts", "acg"), copies=1
    )
    for warm in (False, True):
        keyed.clear()
        envelope = client.simulate(request)
        assert envelope.provenance.cache == ("hit" if warm else "miss")
        assert len(keyed) == 1
        keyed.clear()
        assert [e.provenance.cache for e in client.run_campaign(grid)] == [
            "hit", "hit" if warm else "miss",
        ]
        assert len(keyed) == 2


def test_client_simulate_kwargs_shorthand():
    envelope = ReproClient().simulate(mix="W1", policy="ts", copies=1)
    assert envelope.metrics["policy"] == "DTM-TS"
    assert envelope.metrics["runtime_s"] > 0


def test_client_server_envelope():
    envelope = ReproClient().server(
        ServerRequest(platform="PE1950", mix="W1", policy="bw", copies=1)
    )
    assert envelope.kind == "ch5"
    assert envelope.metrics["platform"] == "PE1950"
    assert envelope.metrics["average_cpu_power_w"] > 0
    assert envelope.request["platform"] == "PE1950"


def test_client_compare_shares_cache_with_simulate():
    client = ReproClient()
    envelopes = client.compare(CompareRequest(mix="W1", copies=1))
    assert len(envelopes) == len(CHAPTER4_POLICIES)
    assert envelopes[0].metrics["policy"] == "No-limit"
    # A compare cell is exactly a simulate cell: the follow-up hits.
    again = client.simulate(SimulateRequest(mix="W1", policy="ts", copies=1))
    assert again.provenance.cache == "hit"


def test_client_run_campaign_streams_envelopes():
    client = ReproClient()
    request = CampaignRequest(
        grid="ch4", mixes=("W1",), policies=("ts", "bw"), copies=1
    )
    iterator = client.run_campaign(request)
    assert iter(iterator) is iterator  # a true stream, not a list
    envelopes = list(iterator)
    assert [e.metrics["policy"] for e in envelopes] == ["DTM-TS", "DTM-BW"]
    assert all(e.schema_version == SCHEMA_VERSION for e in envelopes)
    assert all(e.request["type"] == "cell" for e in envelopes)
    # The table view reports the same cells in the same order.
    headers, rows = client.campaign_table(request)
    assert len(rows) == 2
    assert headers[0] == "cooling"
    assert [row[2] for row in rows] == ["ts", "bw"]


def test_streaming_compute_seconds_are_per_cell():
    # Fresh store: both cells are misses with their own execute time.
    client = ReproClient(MemoryStore())
    request = CampaignRequest(
        grid="ch4", mixes=("W1",), policies=("ts", "bw"), copies=1
    )
    first, second = list(client.run_campaign(request))
    assert first.provenance.cache == "miss"
    assert second.provenance.cache == "miss"
    assert first.provenance.compute_seconds > 0.0
    assert second.provenance.compute_seconds > 0.0
    # Warm repeat: hits report zero compute.
    warm = list(client.run_campaign(request))
    assert all(e.provenance.compute_seconds == 0.0 for e in warm)


def test_streaming_iterator_can_be_abandoned():
    client = ReproClient(MemoryStore())
    request = CampaignRequest(
        grid="ch4", mixes=("W1",), policies=("ts", "bw", "acg"),
        copies=1, jobs=2,
    )
    iterator = client.run_campaign(request)
    envelope = next(iterator)
    assert envelope.metrics["policy"] == "DTM-TS"
    iterator.close()  # must not hang on the rest of the grid


def test_client_runs_named_scenarios_and_their_table():
    client = ReproClient()
    request = ScenarioRequest(names=("cold-aisle",), copies=1)
    envelopes = list(client.run_campaign(request))
    assert len(envelopes) == 1
    assert envelopes[0].scenario == "cold-aisle"
    headers, rows = client.campaign_table(request)
    assert headers[0] == "scenario"
    assert rows[0][0] == "cold-aisle"


def test_client_list_scenarios_filters():
    client = ReproClient()
    everything = client.list_scenarios()
    assert {"name", "kind", "mix", "policy", "tags", "description"} <= set(
        everything[0]
    )
    ch5 = client.list_scenarios(kind="ch5")
    assert ch5 and all(d["kind"] == "ch5" for d in ch5)
    assert client.list_scenarios(tag="nosuchtag") == []


def test_client_store_property_and_results_document():
    store = MemoryStore()
    client = ReproClient(store)
    assert client.store is store
    envelope = client.simulate(SimulateRequest(mix="W1", policy="ts", copies=1))
    document = results_document([envelope])
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["results"][0] == envelope.to_dict()


def test_metrics_include_derived_power_averages():
    from repro.analysis.specs import Chapter4Spec

    result = run(Chapter4Spec(mix="W1", policy="ts", copies=1))
    metrics = metrics_from_result(result)
    assert metrics["average_cpu_power_w"] == pytest.approx(
        result.cpu_energy_j / result.runtime_s
    )
    assert "trace" not in metrics


# ---------------------------------------------------------------------------
# Satellites: platform registry
# ---------------------------------------------------------------------------


def test_platforms_registry_is_canonical():
    assert PLATFORMS == {"PE1950": PE1950, "SR1500AL": SR1500AL}
    assert all(name == platform.name for name, platform in PLATFORMS.items())


