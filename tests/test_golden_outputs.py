"""Golden-master regression tests pinning the numeric outputs.

These tests freeze the exact numbers of Chapter 4 cells (one per DTM
scheme family, three on the integrated-ambient, two-DIMM-chain and
burst-idle paths, a cache-aware-scheduling run, and a run checkpointed
mid-epoch and resumed in a fresh engine), the Chapter 5 grid (one cell
per policy on each platform, plus a run checkpointed mid-epoch and
resumed), the §5.4.1 homogeneous warm-up traces, the campaign
tables built from them, and the run spec and request echo of every
scenario-library entry, so that refactors
for speed (batched kernels, scenario plumbing, cache layers) cannot
silently drift the physics.  Any numeric deviation beyond 1e-9
fails the suite.

Every golden run executes against a :class:`NullStore`, so a stale disk
or memory cache can never mask real drift: the numbers always come from
the code under test.

Refreshing the goldens (after an *intentional* model change)::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_outputs.py

then commit the rewritten ``tests/goldens/*.json`` files alongside the
model change that explains them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import CampaignRequest, ReproClient
from repro.analysis.specs import (
    CHAPTER5_POLICIES,
    Chapter4Spec,
    Chapter5Spec,
)
from repro.campaign import NullStore, engine_for_spec, run
from repro.core.simulator import SimulationConfig, TwoLevelSimulator
from repro.dtm import DTMACG
from repro.engine import EngineState
from repro.engine.codec import state_dict
from repro.testbed.platforms import PLATFORMS
from repro.testbed.runner import run_homogeneous

GOLDEN_DIR = Path(__file__).parent / "goldens"
TOLERANCE = 1e-9
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


def _ch4_payload() -> dict:
    result = run(Chapter4Spec(mix="W1", policy="ts", copies=1), store=NullStore())
    return state_dict(result)


#: One Chapter 4 cell per DTM scheme family beyond the DTM-TS cell above.
CH4_POLICIES = ("no-limit", "bw", "acg", "cdvfs", "comb", "bw+pid")
#: Windows the resumed cell runs before its checkpoint: between two job
#: completions, so the restore lands in the middle of an epoch.
RESUME_AT_WINDOW = 12345


def _ch4_policy_payload(policy: str) -> dict:
    result = run(
        Chapter4Spec(mix="W1", policy=policy, copies=1), store=NullStore()
    )
    return state_dict(result)


#: Chapter 4 cells on the kernel and window-cache paths the default
#: cells above do not reach: a per-window ambient node (integrated
#: model), the generic chain loop (two DIMMs per channel), and
#: burst-idle windows that retire no progress (duty cycle 0.5).
CH4_PATH_CELLS = {
    "ch4_W1_comb_copies1_integrated": dict(policy="comb", ambient="integrated"),
    "ch4_W1_acg_copies1_dimms2": dict(policy="acg", dimms_per_channel=2),
    "ch4_W1_bw_copies1_duty0.5": dict(policy="bw", duty_cycle=0.5),
}


def _cache_aware_payload() -> dict:
    # Two copies per application: with one, every refill choice is
    # forced and the cache-aware scheduler matches round-robin.
    config = SimulationConfig(
        mix_name="W2", copies=2, cache_aware_scheduling=True,
        record_trace=False,
    )
    return state_dict(TwoLevelSimulator(config, DTMACG()).run())


def _resumed_payload(spec, at_window: int, to_dict) -> dict:
    """``spec`` run to ``at_window``, checkpointed through JSON, and
    finished in a fresh engine."""
    first = engine_for_spec(spec)
    assert first.step_windows(at_window) == at_window
    assert 0 < first.scheduler.finished_jobs < first.scheduler.total_jobs
    state = json.loads(json.dumps(first.checkpoint().to_dict()))
    resumed = engine_for_spec(spec)
    resumed.restore(EngineState.from_dict(state))
    return to_dict(resumed.run_to_completion())


#: Both measured servers; the Chapter 5 grid pins one W1 cell per
#: policy on each.
CH5_PLATFORMS = ("PE1950", "SR1500AL")
#: Windows (1 s each) the resumed Chapter 5 cell runs before its
#: checkpoint: after the first job completion (window 150), before the
#: second (window 190).
CH5_RESUME_AT_WINDOW = 170


def _ch5_policy_payload(platform: str, policy: str) -> dict:
    result = run(
        Chapter5Spec(platform=platform, mix="W1", policy=policy, copies=1),
        store=NullStore(),
    )
    return state_dict(result)


#: §5.4.1 warm-up runs (Figs. 5.4/5.5) pinned over 400 s: a
#: memory-intensive program that arms the SR1500AL safety throttle and
#: one that stays below it on the PE1950.
HOMOGENEOUS_CELLS = (("SR1500AL", "swim"), ("PE1950", "mcf"))
HOMOGENEOUS_DURATION_S = 400.0


def _homogeneous_payload(platform: str, app: str) -> dict:
    """The model-truth trace (the daughter card's noisy log is not pinned)."""
    trace, _ = run_homogeneous(
        PLATFORMS[platform], app, duration_s=HOMOGENEOUS_DURATION_S
    )
    return state_dict(trace)


def _campaign_payload() -> dict:
    """The formatted campaign tables (the byte-identity check)."""
    client = ReproClient(NullStore())
    tables = {}
    for grid, policies, variants in (
        ("ch4", ("ts",), ("AOHS_1.5",)),
        ("ch5", ("bw",), ("PE1950",)),
    ):
        headers, rows = client.campaign_table(CampaignRequest(
            grid=grid, mixes=("W1",), policies=policies, variants=variants,
            copies=1,
        ))
        tables[grid] = {"headers": headers, "rows": rows}
    return tables


#: The mix and policy every library entry is also crossed with (both
#: valid on either chapter).
SCENARIO_CROSSING = {"mixes": ("W2",), "policies": ("no-limit",)}


def _scenario_library_payload() -> dict:
    """Per library entry, in grid order: its ``/v1/scenarios``
    descriptor, and the request echo (``type``, ``kind`` and every spec
    field) and cache key of its ``campaign --grid scenarios`` cell at
    ``copies=1``, alone and crossed with :data:`SCENARIO_CROSSING`."""
    client = ReproClient(NullStore())
    descriptors = {d["name"]: d for d in client.list_scenarios()}
    entries = []
    for envelope in client.run_campaign(
        CampaignRequest(grid="scenarios", copies=1)
    ):
        (crossed,) = client.run_campaign(CampaignRequest(
            grid="scenarios", variants=(envelope.scenario,), copies=1,
            **SCENARIO_CROSSING,
        ))
        entries.append({
            "descriptor": descriptors.pop(envelope.scenario),
            "echo": envelope.request,
            "key": envelope.provenance.cache_key,
            "crossed_echo": crossed.request,
            "crossed_key": crossed.provenance.cache_key,
        })
    assert descriptors == {}
    return {"scenarios": entries}


def _compare(golden, fresh, path: str, mismatches: list[str]) -> None:
    """Recursively diff two JSON-shaped values within TOLERANCE."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key not in golden or key not in fresh:
                mismatches.append(f"{path}.{key}: present on one side only")
                continue
            _compare(golden[key], fresh[key], f"{path}.{key}", mismatches)
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            mismatches.append(f"{path}: length {len(golden)} != {len(fresh)}")
            return
        for index, (g, f) in enumerate(zip(golden, fresh)):
            _compare(g, f, f"{path}[{index}]", mismatches)
    elif isinstance(golden, float) or isinstance(fresh, float):
        if abs(float(golden) - float(fresh)) > TOLERANCE:
            mismatches.append(f"{path}: {golden!r} != {fresh!r} (>{TOLERANCE})")
    elif golden != fresh:
        mismatches.append(f"{path}: {golden!r} != {fresh!r}")


def _check_golden(name: str, fresh: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden {name} refreshed")
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing; generate it with "
            "REPRO_UPDATE_GOLDENS=1 and commit it"
        )
    golden = json.loads(path.read_text())
    mismatches: list[str] = []
    _compare(golden, fresh, name, mismatches)
    if mismatches:
        pytest.fail(
            "numeric drift against golden master (refresh intentionally with "
            "REPRO_UPDATE_GOLDENS=1):\n  " + "\n  ".join(mismatches[:40])
        )


def test_golden_ch4_cell():
    _check_golden("ch4_W1_ts_copies1", _ch4_payload())


@pytest.mark.parametrize("policy", CH4_POLICIES)
def test_golden_ch4_policy_cell(policy):
    _check_golden(f"ch4_W1_{policy}_copies1", _ch4_policy_payload(policy))


@pytest.mark.parametrize("name", sorted(CH4_PATH_CELLS))
def test_golden_ch4_path_cell(name):
    spec = Chapter4Spec(mix="W1", copies=1, **CH4_PATH_CELLS[name])
    _check_golden(name, state_dict(run(spec, store=NullStore())))


def test_golden_ch4_cache_aware_scheduling():
    _check_golden("ch4_W2_acg_copies2_cache_aware", _cache_aware_payload())


def test_golden_ch4_resumed_mid_epoch():
    spec = Chapter4Spec(mix="W1", policy="acg", copies=1)
    _check_golden(
        "ch4_W1_acg_copies1_resumed",
        _resumed_payload(spec, RESUME_AT_WINDOW, state_dict),
    )


def test_golden_ch5_cell():
    _check_golden("ch5_PE1950_W1_bw_copies1", _ch5_policy_payload("PE1950", "bw"))


@pytest.mark.parametrize("platform", CH5_PLATFORMS)
@pytest.mark.parametrize("policy", CHAPTER5_POLICIES)
def test_golden_ch5_policy_cell(platform, policy):
    _check_golden(
        f"ch5_{platform}_W1_{policy}_copies1",
        _ch5_policy_payload(platform, policy),
    )


def test_golden_ch5_resumed_mid_epoch():
    spec = Chapter5Spec(platform="PE1950", mix="W1", policy="comb", copies=1)
    _check_golden(
        "ch5_PE1950_W1_comb_copies1_resumed",
        _resumed_payload(spec, CH5_RESUME_AT_WINDOW, state_dict),
    )


@pytest.mark.parametrize(
    "platform,app", HOMOGENEOUS_CELLS,
    ids=[f"{platform}-{app}" for platform, app in HOMOGENEOUS_CELLS],
)
def test_golden_homogeneous_trace(platform, app):
    _check_golden(
        f"homogeneous_{platform}_{app}_{int(HOMOGENEOUS_DURATION_S)}s",
        _homogeneous_payload(platform, app),
    )


def test_golden_campaign_tables():
    _check_golden("campaign_tables", _campaign_payload())


def test_golden_scenario_library():
    _check_golden("scenario_library", _scenario_library_payload())
