"""The stepping engine: checkpoint/restore bit-identity, atomic
checkpoint files, observers, and the progress broker.

The acceptance property: for both simulators (ch4/ch5) under both
thermal kernels (batched/scalar), run K windows, checkpoint, restore
**in a fresh process**, finish — and the final result payload is
bit-identical (``==`` on the encoded dicts, no tolerance) to an
uninterrupted run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.specs import (
    Chapter4Spec,
    Chapter5Spec,
    run_result_to_dict,
    server_result_to_dict,
)
from repro.campaign import NullStore, engine_for_spec, run
from repro.engine import (
    ENGINE_STATE_VERSION,
    CheckpointFile,
    CheckpointObserver,
    EngineState,
    PROGRESS,
    SteadyStateGuard,
)
from repro.errors import CheckpointError, ConfigurationError

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Shared construction of the acceptance engines, used both in-process
#: and by the fresh-interpreter restore driver.  Policies with internal
#: state (PID integrals, hysteresis latches) are the interesting cases.
_BUILD_ENGINE = """
def build_engine(kind, kernel):
    if kind == "ch4":
        from repro.analysis.specs import make_chapter4_policy
        from repro.core.simulator import SimulationConfig, TwoLevelSimulator

        config = SimulationConfig(
            mix_name="W1", copies=1, kernel=kernel, record_trace=True
        )
        policy = make_chapter4_policy("acg+pid")
        return TwoLevelSimulator(config, policy).engine()
    from repro.analysis.specs import make_chapter5_policy
    from repro.testbed.platforms import PLATFORMS
    from repro.testbed.runner import ServerSimulator

    platform = PLATFORMS["PE1950"]
    policy = make_chapter5_policy("comb", platform)
    return ServerSimulator(
        platform, policy, "W1", copies=1, kernel=kernel
    ).engine()
"""

exec(_BUILD_ENGINE)  # noqa: S102 - defines build_engine for this module


def _encode(spec, result) -> dict:
    if spec.kind == "ch4":
        return run_result_to_dict(result)
    return server_result_to_dict(result)


#: Driver executed in a *fresh* interpreter: rebuild the identically
#: configured engine, restore the checkpoint, finish, print the payload.
_RESTORE_DRIVER = (
    """
import json, sys
sys.path.insert(0, {src!r})
from repro.analysis.specs import run_result_to_dict, server_result_to_dict
from repro.engine import EngineState
"""
    + _BUILD_ENGINE
    + """
request = json.load(sys.stdin)
engine = build_engine(request["kind"], request["kernel"])
engine.restore(EngineState.from_dict(request["state"]))
result = engine.run_to_completion()
encode = run_result_to_dict if request["kind"] == "ch4" else server_result_to_dict
print(json.dumps(encode(result)))
"""
)


@pytest.mark.parametrize("kernel", ["batched", "scalar"])
@pytest.mark.parametrize("kind", ["ch4", "ch5"])
def test_checkpoint_restore_in_fresh_process_is_bit_identical(kind, kernel):
    """Run K windows -> checkpoint -> restore in a new interpreter ->
    finish == uninterrupted run, bitwise, for both simulators under
    both thermal kernels."""
    encode = run_result_to_dict if kind == "ch4" else server_result_to_dict
    baseline = encode(build_engine(kind, kernel).run_to_completion())  # noqa: F821

    engine = build_engine(kind, kernel)  # noqa: F821
    stepped = engine.step_windows(173)
    assert stepped == 173, "cells must be long enough to interrupt"
    state = engine.checkpoint().to_dict()

    request = {"kind": kind, "kernel": kernel, "state": state}
    proc = subprocess.run(
        [sys.executable, "-c", _RESTORE_DRIVER.format(src=str(SRC_DIR))],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    resumed = json.loads(proc.stdout)
    # Exact equality after a JSON round trip — shortest-repr floats
    # round-trip bitwise, so this is the bit-identity check.
    assert resumed == json.loads(json.dumps(baseline))


def test_step_windows_then_completion_matches_straight_run():
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    straight = run(spec, store=NullStore())
    engine = engine_for_spec(spec)
    while engine.step_windows(97):
        pass
    assert engine.done
    assert _encode(spec, engine.finish()) == run_result_to_dict(straight)


def test_checkpoint_state_round_trips_and_rejects_foreign_major():
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    engine = engine_for_spec(spec)
    engine.step_windows(50)
    state = engine.checkpoint()
    rebuilt = EngineState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert rebuilt == state
    assert state.version == ENGINE_STATE_VERSION

    foreign = state.to_dict()
    foreign["version"] = "99.0"
    with pytest.raises(CheckpointError, match="incompatible"):
        EngineState.from_dict(foreign)
    with pytest.raises(CheckpointError, match="malformed"):
        EngineState.from_dict({**state.to_dict(), "version": "nope"})


def test_restore_rejects_wrong_strategy_and_observer_mismatch():
    ch4 = engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1))
    ch4.step_windows(10)
    state = ch4.checkpoint()
    ch5 = engine_for_spec(
        Chapter5Spec(platform="PE1950", mix="W1", policy="bw", copies=1)
    )
    with pytest.raises(CheckpointError, match="strategy"):
        ch5.restore(state)

    extra = engine_for_spec(
        Chapter4Spec(mix="W1", policy="ts", copies=1),
        extra_observers=(SteadyStateGuard(),),
    )
    with pytest.raises(CheckpointError, match="observer"):
        extra.restore(state)


def test_engine_kinds_only_for_registered_factories():
    class FakeSpec:
        kind = "ch4"

        def key(self):
            return "x"

    with pytest.raises(ConfigurationError, match="resumable"):
        # Register-free kinds fail loudly through engine_for_spec.
        from repro.campaign.spec import Runner, _RUNNERS

        original = _RUNNERS["ch4"]
        try:
            _RUNNERS["ch4"] = Runner(
                kind="ch4",
                execute=original.execute,
                encode=original.encode,
                decode=original.decode,
                make_engine=None,
            )
            engine_for_spec(FakeSpec())
        finally:
            _RUNNERS["ch4"] = original


# ---------------------------------------------------------------------------
# Checkpoint files: atomicity, no partial leftovers
# ---------------------------------------------------------------------------


def test_checkpoint_file_write_is_atomic_and_cleans_tmp_on_failure(
    tmp_path, monkeypatch
):
    """An interrupted checkpoint write leaves the previous snapshot
    intact and no temp siblings — the JsonDirStore torn-write
    discipline applied to checkpoints."""
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    engine = engine_for_spec(spec)
    engine.step_windows(30)
    checkpoint = CheckpointFile(tmp_path / "cell.checkpoint.json")
    checkpoint.write(engine.checkpoint())
    good = checkpoint.load()

    engine.step_windows(30)
    import os

    real_write = os.write

    def failing_write(fd, data):
        # Simulate the process dying mid-write: the temp file exists
        # but only a torn prefix of the content lands.
        real_write(fd, b"{'torn':")
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.engine.state.os.write", failing_write)
    with pytest.raises(KeyboardInterrupt):
        checkpoint.write(engine.checkpoint())
    monkeypatch.undo()

    leftovers = [p.name for p in tmp_path.iterdir()]
    assert leftovers == ["cell.checkpoint.json"], leftovers
    assert checkpoint.load() == good  # previous snapshot survived intact


def test_checkpoint_observer_writes_periodically_and_removes_on_finish(
    tmp_path,
):
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    path = tmp_path / "run.checkpoint.json"
    observer = CheckpointObserver(CheckpointFile(path), every_windows=50)
    engine = engine_for_spec(spec, extra_observers=(observer,))
    engine.step_windows(120)
    assert path.is_file()
    snapshot = CheckpointFile(path).load()
    assert snapshot.windows == 100  # last multiple of every_windows
    engine.run_to_completion()
    # A completed run leaves nothing to resume — and no temp files.
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_observer_resume_roundtrip_via_file(tmp_path):
    spec = Chapter5Spec(platform="PE1950", mix="W1", policy="bw", copies=1)
    baseline = server_result_to_dict(engine_for_spec(spec).run_to_completion())

    path = tmp_path / "srv.checkpoint.json"
    observer = CheckpointObserver(CheckpointFile(path), every_windows=40)
    engine = engine_for_spec(spec, extra_observers=(observer,))
    engine.step_windows(95)  # abandon mid-run; file holds window 80

    resumed_engine = engine_for_spec(
        spec,
        extra_observers=(
            CheckpointObserver(CheckpointFile(path), every_windows=40),
        ),
    )
    resumed_engine.restore(CheckpointFile(path).load())
    assert resumed_engine.windows == 80
    result = resumed_engine.run_to_completion()
    assert server_result_to_dict(result) == baseline
    assert not path.exists()


# ---------------------------------------------------------------------------
# Observers: early stop, progress broker
# ---------------------------------------------------------------------------


def test_steady_state_guard_stops_long_runs_early():
    spec = Chapter4Spec(mix="W1", policy="no-limit", copies=2)
    full = engine_for_spec(spec)
    full_result = full.run_to_completion()

    guard = SteadyStateGuard(tolerance_c=5.0, window_span=50, min_windows=100)
    engine = engine_for_spec(spec, extra_observers=(guard,))
    result = engine.run_to_completion()
    assert guard.stopped
    assert engine.windows < full.windows
    assert result.runtime_s < full_result.runtime_s


def test_progress_broker_tracks_engine_runs():
    PROGRESS.clear()
    spec = Chapter4Spec(mix="W1", policy="ts", copies=1)
    key = spec.key()
    with PROGRESS.track(key):
        engine_for_spec(spec).run_to_completion()
    runs = PROGRESS.snapshot()
    assert key in runs
    final = runs[key]
    assert final["done"] is True
    assert final["strategy"] == "ch4"
    assert final["windows"] > 0
    assert final["finished_jobs"] == final["total_jobs"]
    # Filtered view returns just the requested run.
    assert PROGRESS.snapshot(key) == {key: final}
    assert PROGRESS.snapshot("missing") == {}
    PROGRESS.clear()


def test_untracked_runs_do_not_publish():
    PROGRESS.clear()
    engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1)).run_to_completion()
    assert PROGRESS.snapshot() == {}


def test_engine_state_error_paths(tmp_path):
    from repro.errors import SimulationError

    with pytest.raises(CheckpointError, match="JSON object"):
        EngineState.from_dict([1, 2])  # type: ignore[arg-type]
    with pytest.raises(CheckpointError, match="malformed engine state"):
        EngineState.from_dict({"version": ENGINE_STATE_VERSION})

    missing = CheckpointFile(tmp_path / "absent.json")
    assert not missing.exists()
    with pytest.raises(CheckpointError, match="cannot read"):
        missing.load()
    (tmp_path / "torn.json").write_text('{"version":')
    with pytest.raises(CheckpointError, match="not valid JSON"):
        CheckpointFile(tmp_path / "torn.json").load()
    missing.remove()  # idempotent on absent files

    engine = engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1))
    with pytest.raises(SimulationError, match="negative"):
        engine.step_windows(-1)
    engine.step_windows(5)
    state = engine.checkpoint()
    broken = state.to_dict()
    del broken["accumulators"]["peak_amb_c"]
    with pytest.raises(CheckpointError, match="missing accumulators"):
        engine.restore(EngineState.from_dict(broken))


def test_observer_defaults_and_validation(tmp_path):
    from repro.engine import Observer, ProgressObserver, TraceRecorder

    base = Observer()
    assert base.state_dict() == {}
    base.load_state_dict({})
    with pytest.raises(ValueError):
        ProgressObserver(every_windows=0)
    with pytest.raises(ValueError):
        CheckpointObserver(tmp_path / "x.json", every_windows=0)
    with pytest.raises(ValueError):
        SteadyStateGuard(window_span=0)
    # The recorder round-trips its pristine (never sampled) state.
    recorder = TraceRecorder(resolution_s=1.0)
    state = recorder.state_dict()
    assert state["since_s"] is None
    recorder.load_state_dict(state)
    assert recorder.state_dict() == state


# -- the per-window call ledger -----------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        Chapter4Spec(mix="W2", policy="comb", copies=1),
        Chapter5Spec(platform="PE1950", mix="W1", policy="bw", copies=1),
    ],
    ids=["ch4", "ch5"],
)
def test_each_layer_runs_once_per_window(spec, monkeypatch):
    """A solo run calls the engine step, the engine apply, the thermal
    kernel and the policy decision exactly once per DTM window, through
    their public names (what a tracer wrapping those names relies on)."""
    from repro.core.kernel import BatchedMemSpot
    from repro.dtm.base import DTMPolicy
    from repro.engine import SteppingEngine

    calls: dict[str, int] = {}
    for owner, name in (
        (SteppingEngine, "step_window"),
        (SteppingEngine, "apply_window"),
        (BatchedMemSpot, "step"),
        (DTMPolicy, "decide"),
    ):
        original = getattr(owner, name)
        label = f"{owner.__name__}.{name}"
        calls[label] = 0

        def counted(*args, _original=original, _label=label, **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    engine = engine_for_spec(spec)
    engine.run_to_completion()
    assert engine.windows > 0
    assert calls == dict.fromkeys(calls, engine.windows)


# -- malformed snapshots --------------------------------------------------------


def _ch4_state() -> dict:
    engine = engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1))
    engine.step_windows(20)
    return engine.checkpoint().to_dict()


def _set(state: dict, path: str, value) -> dict:
    *parents, leaf = path.split(".")
    node = state
    for part in parents:
        node = node[part]
    if value is _DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    return state


_DELETE = object()


@pytest.mark.parametrize(
    "path,value,match",
    [
        ("thermal.t_amb", ["x", 1.0, 1.0, 1.0], r"t_amb\[0\] must be a number"),
        ("thermal.t_amb", [60.0, 60.0], "must list 4 DIMM positions"),
        ("thermal.t_dram", [float("nan")] * 4, "must be finite"),
        ("thermal.t_ambient", _DELETE, "missing"),
        ("thermal.t_ambient", float("inf"), "must be finite"),
        ("accumulators.traffic_bytes", "x", "must be a number"),
        ("accumulators.peak_amb_c", float("nan"), "must be finite"),
        ("now_s", True, "must be a number"),
        ("windows", -3, "non-negative integer"),
        ("windows", "abc", "non-negative integer"),
        ("strategy_state.scheduler", _DELETE, "malformed"),
        ("strategy_state.scheduler", "x", "malformed"),
        ("strategy_state", [], "must be an object"),
        ("observers", [1], "list of objects"),
    ],
    ids=[
        "t_amb-string", "t_amb-short", "t_dram-nan", "t_ambient-missing",
        "t_ambient-inf", "traffic-string", "peak-nan", "now-bool",
        "windows-negative", "windows-string", "scheduler-missing",
        "scheduler-string", "strategy_state-list", "observers-ints",
    ],
)
def test_malformed_snapshots_raise_checkpoint_errors(path, value, match):
    """Every defect surfaces as a CheckpointError (a structured 400 over
    HTTP, an ``error:`` line on the CLI), never a raw ValueError or
    KeyError, and a NaN temperature is refused rather than restored."""
    broken = _set(_ch4_state(), path, value)
    engine = engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1))
    with pytest.raises(CheckpointError, match=match):
        engine.restore(EngineState.from_dict(json.loads(json.dumps(broken))))


def test_bad_thermal_state_leaves_the_kernel_untouched():
    from repro.core.kernel import BatchedMemSpot
    from repro.params.thermal_params import AOHS_1_5, ISOLATED_AMBIENT

    kernel = BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT)
    before = kernel.thermal_state()
    bad = {**before, "t_dram": before["t_dram"][:3] + ["hot"]}
    with pytest.raises(CheckpointError, match=r"t_dram\[3\]"):
        kernel.load_thermal_state(bad)
    assert kernel.thermal_state() == before
