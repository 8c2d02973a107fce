"""Pinned mid-run engine checkpoints: the on-disk format stays put.

Each ``tests/goldens/checkpoint_<cell>.json`` holds the exact bytes a
:class:`~repro.engine.CheckpointFile` writes for one cell stopped at a
fixed window, and ``checkpoint_key_order.json`` pins the key order of
the unsorted ``json.dumps(state.to_dict())`` form (what a writer
without ``sort_keys`` puts on the wire).  A refactor of how run state is
captured or decoded must leave both unchanged, and every pinned file
must restore into a fresh engine and finish with the same payload as a
run that never paused.

The cells cover every stateful component: DTM-TS hysteresis, the
emergency-level latch (ACG, CDVFS, COMB), the gated-core rotation,
the PID controllers (``bw+pid``), the batch scheduler with finished,
running and queued jobs, a trace recorder holding samples, a Chapter 5
server and the §5.4.1 homogeneous warm-up.

Refreshing (after an intentional format change, which needs an
``ENGINE_STATE_VERSION`` bump)::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_checkpoint_goldens.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.specs import (
    Chapter4Spec,
    Chapter5Spec,
)
from repro.campaign import NullStore, engine_for_spec, run
from repro.engine import CheckpointFile
from repro.engine.codec import state_dict
from repro.engine.stepping import SteppingEngine
from repro.testbed.performance import ServerWindowModel
from repro.testbed.platforms import PLATFORMS
from repro.testbed.runner import HomogeneousStrategy, run_homogeneous
from repro.workloads.profiles import get_app

GOLDEN_DIR = Path(__file__).parent / "goldens"
KEY_ORDER = GOLDEN_DIR / "checkpoint_key_order.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: The homogeneous warm-up cell: SR1500AL running four copies of swim,
#: which arms the chipset safety throttle.
HOMOGENEOUS = ("SR1500AL", "swim", 400.0)


def _ch4(policy: str) -> Chapter4Spec:
    return Chapter4Spec(mix="W1", policy=policy, copies=1, record_trace=True)


#: Golden name -> (spec, or None for the homogeneous warm-up; the
#: window the checkpoint is taken at).  The Chapter 4 cells stop
#: between two job completions; the Chapter 5 cell after its first;
#: the warm-up after the throttle has armed.
CELLS = {
    **{
        f"checkpoint_ch4_W1_{policy}": (_ch4(policy), 12345)
        for policy in ("ts", "acg", "bw+pid", "comb", "cdvfs")
    },
    "checkpoint_ch5_PE1950_W1_comb": (
        Chapter5Spec(platform="PE1950", mix="W1", policy="comb", copies=1),
        170,
    ),
    "checkpoint_homogeneous_SR1500AL_swim": (None, 200),
}


def _engine(spec) -> SteppingEngine:
    if spec is not None:
        return engine_for_spec(spec)
    platform_name, app, duration_s = HOMOGENEOUS
    platform = PLATFORMS[platform_name]
    strategy = HomogeneousStrategy(
        platform, get_app(app), duration_s, 100.0,
        ServerWindowModel(platform),
    )
    return SteppingEngine(strategy)


def _payload(spec, result) -> dict:
    if spec is None:
        return state_dict(result)
    if spec.kind == "ch4":
        return state_dict(result)
    return state_dict(result)


def _uninterrupted(spec) -> dict:
    if spec is None:
        platform_name, app, duration_s = HOMOGENEOUS
        trace, _ = run_homogeneous(
            PLATFORMS[platform_name], app, duration_s=duration_s
        )
        return state_dict(trace)
    return _payload(spec, run(spec, store=NullStore()))


def _key_paths(node, prefix: str = "") -> list[str]:
    """Every object key under ``node``, dotted, in insertion order (a
    list contributes its items' keys under their index)."""
    paths: list[str] = []
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}{key}"
            paths.append(path)
            paths.extend(_key_paths(value, path + "."))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            paths.extend(_key_paths(value, f"{prefix}{index}."))
    return paths


@pytest.mark.parametrize("name", sorted(CELLS))
def test_checkpoint_bytes_and_key_order_are_pinned(name, tmp_path):
    spec, at_window = CELLS[name]
    engine = _engine(spec)
    assert engine.step_windows(at_window) == at_window
    state = engine.checkpoint()
    written = CheckpointFile(tmp_path / "cell.checkpoint.json")
    written.write(state)
    fresh = written.path.read_bytes()
    order = _key_paths(json.loads(json.dumps(state.to_dict())))
    golden = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        golden.write_bytes(fresh)
        pinned = json.loads(KEY_ORDER.read_text()) if KEY_ORDER.exists() else {}
        pinned[name] = order
        KEY_ORDER.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"checkpoint golden {name} refreshed")
    assert fresh == golden.read_bytes()
    assert order == json.loads(KEY_ORDER.read_text())[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_checkpoint_resumes_to_the_uninterrupted_payload(name):
    spec, at_window = CELLS[name]
    state = CheckpointFile(GOLDEN_DIR / f"{name}.json").load()
    engine = _engine(spec)
    engine.restore(state)
    assert engine.windows == at_window
    assert _payload(spec, engine.run_to_completion()) == _uninterrupted(spec)


def test_a_checkpoint_with_the_retired_acg_rotation_keys_still_resumes(tmp_path):
    """DTM-ACG once kept a rotation counter of its own (``rotation``,
    ``since_rotation_s``) that nothing read.  Checkpoints written then
    carry both keys in ``strategy_state.policy``; a reader ignores them
    and finishes with the uninterrupted run's payload bytes."""
    spec, at_window = CELLS["checkpoint_ch4_W1_acg"]
    raw = json.loads((GOLDEN_DIR / "checkpoint_ch4_W1_acg.json").read_text())
    raw["strategy_state"]["policy"].update(rotation=1122, since_rotation_s=0.03)
    path = tmp_path / "cell.checkpoint.json"
    path.write_text(json.dumps(raw, sort_keys=True) + "\n")
    engine = _engine(spec)
    engine.restore(CheckpointFile(path).load())
    assert engine.windows == at_window
    resumed = json.dumps(_payload(spec, engine.run_to_completion()), sort_keys=True)
    assert resumed == json.dumps(_uninterrupted(spec), sort_keys=True)
