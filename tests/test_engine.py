"""The stepping engine: checkpoint/restore bit-identity, atomic
checkpoint files, observers, and the progress broker.

The acceptance property: for both simulators (ch4/ch5), run K
windows, checkpoint, restore **in a fresh process**, finish — and the
final result payload is bit-identical (``==`` on the encoded dicts, no
tolerance) to an uninterrupted run.
"""

from __future__ import annotations

import json
import math
import re
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
    EngineStateSerializer,
    PROGRESS,
    TraceRecorder,
)
from repro.engine import codec
from repro.errors import CheckpointError, ConfigurationError

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Shared construction of the acceptance engines, used both in-process
#: and by the fresh-interpreter restore driver.  Policies with internal
#: state (PID integrals, hysteresis latches) are the interesting cases.
_BUILD_ENGINE = """
def build_engine(kind):
    if kind == "ch4":
        from repro.analysis.specs import make_chapter4_policy
        from repro.core.simulator import SimulationConfig, TwoLevelSimulator

        config = SimulationConfig(mix_name="W1", copies=1, record_trace=True)
        policy = make_chapter4_policy("acg+pid")
        return TwoLevelSimulator(config, policy).engine()
    from repro.analysis.specs import make_chapter5_policy
    from repro.testbed.platforms import PLATFORMS
    from repro.testbed.runner import ServerSimulator

    platform = PLATFORMS["PE1950"]
    policy = make_chapter5_policy("comb", platform)
    return ServerSimulator(platform, policy, "W1", copies=1).engine()
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
engine = build_engine(request["kind"])
engine.restore(EngineState.from_dict(request["state"]))
result = engine.run_to_completion()
encode = run_result_to_dict if request["kind"] == "ch4" else server_result_to_dict
print(json.dumps(encode(result)))
"""
)


@pytest.mark.parametrize(
    "kind", ["ch4", "ch5"], ids=["ch4-batched", "ch5-batched"]
)
def test_checkpoint_restore_in_fresh_process_is_bit_identical(kind):
    """Run K windows -> checkpoint -> restore in a new interpreter ->
    finish == uninterrupted run, bitwise, for both simulators on the
    batched thermal kernel."""
    encode = run_result_to_dict if kind == "ch4" else server_result_to_dict
    baseline = encode(build_engine(kind).run_to_completion())  # noqa: F821

    engine = build_engine(kind)  # noqa: F821
    stepped = engine.step_windows(173)
    assert stepped == 173, "cells must be long enough to interrupt"
    state = engine.checkpoint().to_dict()

    request = {"kind": kind, "state": state}
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
        extra_observers=(TraceRecorder(),),
    )
    with pytest.raises(CheckpointError, match="observer"):
        extra.restore(state)


def test_register_runner_requires_an_engine_factory():
    """Every cell runs on its engine, so a kind with no engine factory
    cannot be registered."""
    from repro.campaign import register_runner, registered_kinds

    with pytest.raises(ConfigurationError, match="make_engine"):
        register_runner("no-engine", None, encode=dict, decode=dict)
    with pytest.raises(TypeError):
        register_runner("no-engine", encode=dict, decode=dict)
    assert "no-engine" not in registered_kinds()


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


def test_serializer_output_matches_plain_dumps_across_writes():
    engine = engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1))
    serializer = EngineStateSerializer()
    for _ in range(3):
        engine.step_windows(97)
        state = engine.checkpoint()
        assert serializer.serialize(state) == json.dumps(
            state.to_dict(), sort_keys=True
        )


def test_checkpoint_file_written_via_serializer_loads_identically(tmp_path):
    engine = engine_for_spec(Chapter4Spec(mix="W1", policy="ts", copies=1))
    engine.step_windows(113)
    state = engine.checkpoint()
    plain = CheckpointFile(tmp_path / "plain.json")
    cached = CheckpointFile(tmp_path / "deep" / "cached.json")  # mkdir path
    plain.write(state)
    cached.write(state, serializer=EngineStateSerializer())
    assert (tmp_path / "plain.json").read_text() == (
        tmp_path / "deep" / "cached.json"
    ).read_text()
    assert cached.load().to_dict() == state.to_dict()


# ---------------------------------------------------------------------------
# Observers: progress broker
# ---------------------------------------------------------------------------


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
    from repro.engine import Observer, ProgressObserver

    base = Observer()
    assert codec.state_dict(base) == {}
    codec.load_state_dict(base, {})
    with pytest.raises(ValueError):
        ProgressObserver(every_windows=0)
    with pytest.raises(ValueError):
        CheckpointObserver(tmp_path / "x.json", every_windows=0)
    # The recorder round-trips its pristine (never sampled) state.
    recorder = TraceRecorder(resolution_s=1.0)
    state = codec.state_dict(recorder)
    assert state["since_s"] is None
    codec.load_state_dict(recorder, state)
    assert codec.state_dict(recorder) == state


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
    their public names (what a tracer wrapping those names relies on:
    ``decide`` on every policy class that defines it)."""
    from repro.core.kernel import BatchedMemSpot
    from repro.dtm.base import DTMPolicy
    from repro.engine import SteppingEngine

    policies = [DTMPolicy]
    for policy_class in policies:
        policies.extend(policy_class.__subclasses__())
    calls: dict[str, int] = {}
    for owner, name, label in (
        (SteppingEngine, "step_window", "SteppingEngine.step_window"),
        (SteppingEngine, "apply_window", "SteppingEngine.apply_window"),
        (BatchedMemSpot, "step", "BatchedMemSpot.step"),
    ) + tuple(
        (policy_class, "decide", "DTMPolicy.decide")
        for policy_class in policies
        if "decide" in policy_class.__dict__
    ):
        original = getattr(owner, name)
        calls[label] = 0

        def counted(*args, _original=original, _label=label, **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    engine = engine_for_spec(spec)
    engine.run_to_completion()
    assert engine.windows > 0
    assert calls == dict.fromkeys(calls, engine.windows)


#: Span names the per-layer ledger (``perfbench --trace 1``) must
#: resolve against the program.
LEDGER_SPANS = {
    "engine.step", "engine.apply", "simulator.window", "testbed.window",
    "dtm.decide", "batch.advance", "kernel.step", "windowmodel.evaluate",
    "sharing.solve", "testbed.evaluate",
}
#: Ledger targets whose code was deleted with the lockstep gang and the
#: split window body; the ledger reports them as unwrapped.
RETIRED_TARGETS = {
    "repro.engine.gang.GangStrategy",
    "repro.core.simulator.Chapter4Strategy.window_with_decision",
    "repro.core.simulator.Chapter4Strategy.window_fast",
    "repro.core.kernel.GridMemSpot",
}


def test_the_layer_ledger_still_resolves_its_targets():
    """Every span the per-layer ledger reports still wraps a function
    of the program, and nothing beyond the retired targets is missing
    (the tracer module is loaded from its file, not modified)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    loader = importlib.util.spec_from_file_location("_ledger_tracing", path)
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    resolved, missing = tracing._targets()
    assert LEDGER_SPANS <= {span for _, _, span in resolved}
    assert set(missing) <= RETIRED_TARGETS


# -- malformed snapshots --------------------------------------------------------


def _ch4_state(policy: str = "ts") -> dict:
    engine = engine_for_spec(Chapter4Spec(mix="W1", policy=policy, copies=1))
    engine.step_windows(20)
    return engine.checkpoint().to_dict()


def _set(state: dict, path: str, value) -> dict:
    """Overwrite (or delete) the node at a dotted ``path``; a part
    under a list is an index."""
    *parents, leaf = path.split(".")
    node = state
    for part in parents:
        node = node[int(part) if isinstance(node, list) else part]
    key = int(leaf) if isinstance(node, list) else leaf
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return state


def _get(state: dict, path: str):
    node = state
    for part in path.split("."):
        node = node[int(part) if isinstance(node, list) else part]
    return node


def _refuses_and_keeps_state(engine, broken: dict, match: str) -> None:
    """Restoring ``broken`` raises a CheckpointError matching ``match``
    and leaves the engine's checkpoint as it was."""
    before = engine.checkpoint().to_dict()
    with pytest.raises(CheckpointError, match=match):
        engine.restore(EngineState.from_dict(json.loads(json.dumps(broken))))
    assert engine.checkpoint().to_dict() == before


_DELETE = object()
#: The job running in core slot 0: ``[app index, copy, remaining]``.
_SLOT0 = "strategy_state.scheduler.slots.0"
#: The AMB controller of a ``bw+pid`` policy; paths under it are
#: broken in a ``bw+pid`` snapshot.
_PID = "strategy_state.policy.amb"
#: Paths under it are broken in an ``acg`` snapshot, every other path
#: in a ``ts`` one.
_ACG = "strategy_state.policy."


def _trace(**columns) -> dict:
    """A one-sample trace-recorder trace with ``columns`` overridden."""
    return {
        "times_s": [0.01], "amb_c": [60.0], "dram_c": [50.0],
        "ambient_c": [45.0], **columns,
    }


@pytest.mark.parametrize(
    "path,value,match",
    [
        ("thermal.t_amb", ["x", 1.0, 1.0, 1.0], r"t_amb\.0 must be a number"),
        ("thermal.t_amb", [60.0, 60.0], "t_amb must list 4 values"),
        ("thermal.t_dram", [float("nan")] * 4, "must be finite"),
        ("thermal.t_ambient", _DELETE, "missing"),
        ("thermal.t_ambient", float("inf"), "must be finite"),
        ("accumulators.traffic_bytes", "x", "must be a number"),
        ("accumulators.peak_amb_c", float("nan"), "must be finite"),
        ("now_s", True, "must be a number"),
        ("windows", -3, "non-negative integer"),
        ("windows", "abc", "non-negative integer"),
        ("strategy_state.scheduler", _DELETE, "scheduler is missing"),
        ("strategy_state.scheduler", "x", "scheduler must be an object"),
        ("strategy_state", [], "must be an object"),
        ("observers", [1], r"observers\.0 must be an object"),
        ("strategy_state.since_rotation_s", float("nan"), "must be finite"),
        ("strategy_state.rotation", -1, "rotation must be a non-negative"),
        ("strategy_state.total_intervals", 20.5, "must be a non-negative"),
        (
            "strategy_state.shutdown_intervals", 10**9,
            r"shutdown_intervals must be <= total_intervals \(20\)",
        ),
        (_SLOT0 + ".2", -1.0, r"slots\.0\.2 must be >= 0"),
        (_SLOT0 + ".2", float("nan"), r"slots\.0\.2 must be finite"),
        (_SLOT0 + ".2", 0.0, r"slots\.0 has no instructions remaining"),
        ("strategy_state.scheduler.slots", [None] * 3, "must list 4 core slots"),
        ("strategy_state.scheduler.slots", [None] * 4, "job count does not match"),
        (
            "strategy_state.scheduler.queue", [[0, 0, 0.0]],
            r"queue\.0 has no instructions remaining",
        ),
        (_SLOT0 + ".0", -1, r"slots\.0\.0 must be a non-negative"),
        (_SLOT0 + ".1", 1, r"slots\.0\.1 must be .* below 1"),
        ("observers.0.since_s", float("nan"), "since_s must be finite"),
        ("observers.0.since_s", -0.5, "since_s must be >= 0"),
        (
            "observers.0.trace", _trace(amb_c=["hot"]),
            r"trace\.amb_c\.0 must be a number",
        ),
        ("observers.0.trace", _trace(dram_c=[]), "equal lengths"),
        ("strategy_state.policy.shut_down", "false", "must be a boolean"),
        ("strategy_state.policy.shut_down", 1, "must be a boolean"),
        (_PID + ".integral", float("nan"), "integral must be finite"),
        (_PID + ".integral", float("inf"), "integral must be finite"),
        (_PID + ".integral", "7", "integral must be a number"),
        (_PID + ".previous_error", float("nan"), "previous_error must be"),
        (_PID + ".previous_error", "0.5", "previous_error must be a number"),
        (_PID + ".saturated_low", "false", "saturated_low must be a boolean"),
        (_PID + ".saturated_high", 0, "saturated_high must be a boolean"),
        # Refused since the codec checks every declared field; each
        # restored silently before (NaN, a truncated 2.7, "false" -> True).
        (_ACG + "since_rotation_s", float("nan"), "since_rotation_s must be finite"),
        (_ACG + "since_rotation_s", -5, r"since_rotation_s must be >= 0\.0"),
        (_ACG + "rotation", -1, "rotation must be a non-negative integer"),
        (_ACG + "rotation", 2.7, "rotation must be a non-negative integer"),
        (_ACG + "rotation", "3", "rotation must be a non-negative integer"),
        (_ACG + "tracker.latched", "false", "latched must be a boolean"),
        (_ACG + "tracker.latched", 1, "latched must be a boolean"),
    ],
    ids=[
        "t_amb-string", "t_amb-short", "t_dram-nan", "t_ambient-missing",
        "t_ambient-inf", "traffic-string", "peak-nan", "now-bool",
        "windows-negative", "windows-string", "scheduler-missing",
        "scheduler-string", "strategy_state-list", "observers-ints",
        "since_rotation-nan", "rotation-negative", "total_intervals-float",
        "shutdown-above-total", "remaining-negative", "remaining-nan",
        "remaining-zero", "slots-short", "jobs-missing",
        "queued-remaining-zero", "app_index-negative", "copy_index-out-of-range",
        "trace_since-nan", "trace_since-negative", "trace-string-sample",
        "trace-ragged-columns", "ts-shut_down-string", "ts-shut_down-int",
        "pid-integral-nan", "pid-integral-inf", "pid-integral-string",
        "pid-previous_error-nan", "pid-previous_error-string",
        "pid-saturated_low-string", "pid-saturated_high-int",
        "acg-since_rotation-nan", "acg-since_rotation-negative",
        "acg-rotation-negative", "acg-rotation-fractional",
        "acg-rotation-string", "tracker-latched-string", "tracker-latched-int",
    ],
)
def test_malformed_snapshots_raise_checkpoint_errors(path, value, match):
    """Every defect surfaces as a CheckpointError (a structured 400 over
    HTTP, an ``error:`` line on the CLI), never a raw ValueError or
    KeyError; a NaN temperature, counter, job or trace sample is
    refused rather than restored, and the refused restore leaves the
    engine as it was."""
    if path.startswith(_PID):
        policy = "bw+pid"
    elif path.startswith(_ACG) and "shut_down" not in path:
        policy = "acg"
    else:
        policy = "ts"
    broken = _set(_ch4_state(policy), path, value)
    engine = engine_for_spec(Chapter4Spec(mix="W1", policy=policy, copies=1))
    engine.step_windows(5)
    _refuses_and_keeps_state(engine, broken, match)


def _bad_values(kind, value):
    """``(suffix, label, bad value, condition)`` cases breaking one
    declared ``kind``; ``value`` is the snapshot's value there, whose
    first item (if any) gets its item kind's cases."""
    if isinstance(kind, codec.Optional):
        yield from _bad_values(kind.kind, value)
    elif isinstance(kind, codec.Float):
        yield "", "string", "x", "must be a number"
        yield "", "nan", float("nan"), "must be finite"
        yield "", "inf", float("inf"), "must be finite"
        if kind.minimum > -math.inf:
            yield "", "below-minimum", kind.minimum - 5, "must be >="
    elif isinstance(kind, codec.Count):
        condition = "must be a non-negative integer"
        yield "", "negative", -1, condition
        yield "", "fractional", 2.5, condition
        yield "", "string", "3", condition
        yield "", "bool", True, condition
    elif isinstance(kind, codec.Flag):
        yield "", "string", "false", "must be a boolean"
        yield "", "int", 1, "must be a boolean"
    elif isinstance(kind, codec.Text):
        yield "", "int", 5, "must be a string"
    elif isinstance(kind, (codec.Object, codec.Nested)):
        yield "", "list", [], "must be an object"
        if isinstance(kind, codec.Object) and kind.item is not None and value:
            key = next(iter(value))
            for suffix, label, bad, condition in _bad_values(kind.item, value[key]):
                yield f".{key}{suffix}", label, bad, condition
    elif isinstance(kind, codec.Row):
        yield "", "string", "x", f"must be a list of {len(kind.items)} values"
        for index, item in enumerate(kind.items):
            for suffix, label, bad, condition in _bad_values(item, value[index]):
                yield f".{index}{suffix}", label, bad, condition
    elif isinstance(kind, codec.ListOf):
        yield "", "string", "x", "must be a list"
        if kind.length is not None:
            yield "", "short", value[:-1], f"must list {len(value)} values"
        if value:
            for suffix, label, bad, condition in _bad_values(kind.item, value[0]):
                yield f".0{suffix}", label, bad, condition
    else:  # pragma: no cover - a new kind needs its cases here
        raise AssertionError(f"no malformed cases for {kind!r}")


def _declared(component, path, fields=None):
    """``(owner, dotted path, field)`` for every field declared under
    ``component``, nested components included."""
    for field in fields or codec.fields_of(component):
        where = f"{path}.{field.key}" if path else field.key
        yield component, where, field
        if isinstance(field.kind, codec.Nested):
            yield from _declared(
                getattr(component, field.attr), where, field.kind.fields
            )


def _schema_cases():
    """One malformed snapshot per (declared field, broken condition),
    walking every component the pinned checkpoint cells reach; a field
    shared by several cells is broken in the first."""
    from test_checkpoint_goldens import CELLS, GOLDEN_DIR, _engine

    cases, seen = [], set()
    for name, (spec, _) in sorted(CELLS.items()):
        snapshot = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        engine = _engine(spec)
        sections = [(EngineState, "")]
        sections.append((engine.strategy.memspot, "thermal"))
        sections.append((engine.strategy, "strategy_state"))
        sections += [
            (observer, f"observers.{index}")
            for index, observer in enumerate(engine.observers)
        ]
        for component, root in sections:
            for owner, path, field in _declared(component, root):
                owner_name = owner.__name__ if owner is EngineState else type(owner).__name__
                checks = []
                if field.default is codec.REQUIRED:
                    checks.append(("", "missing", _DELETE, "is missing"))
                checks += _bad_values(field.kind, _get(snapshot, path))
                for suffix, label, bad, condition in checks:
                    key = (owner_name, field.key, suffix, label)
                    if key in seen:
                        continue
                    seen.add(key)
                    cases.append(pytest.param(
                        name, path + suffix, bad,
                        re.escape(path + suffix) + " " + condition,
                        id=f"{owner_name}.{field.key}{suffix}-{label}",
                    ))
    return cases


@pytest.mark.parametrize("cell,path,value,match", _schema_cases())
def test_every_declared_field_refuses_malformed_values(cell, path, value, match):
    """Each field the components declare, broken once per kind of
    defect in a pinned checkpoint, is refused with a message naming its
    path and the condition, and the refused restore changes nothing."""
    from test_checkpoint_goldens import CELLS, GOLDEN_DIR, _engine

    snapshot = json.loads((GOLDEN_DIR / f"{cell}.json").read_text())
    engine = _engine(CELLS[cell][0])
    engine.step_windows(5)
    _refuses_and_keeps_state(engine, _set(snapshot, path, value), match)


def test_refused_restore_leaves_the_engine_unchanged():
    """Regression: the thermal section and the PID controllers were
    restored before a later field was refused, so a failed restore left
    a half-overwritten engine."""
    spec = Chapter4Spec(mix="W1", policy="bw+pid", copies=1)
    source = engine_for_spec(spec)
    source.step_windows(300)
    broken = source.checkpoint().to_dict()
    broken["strategy_state"]["policy"]["amb"]["saturated_low"] = "false"
    engine = engine_for_spec(spec)
    engine.step_windows(5)
    before = engine.checkpoint().to_dict()
    with pytest.raises(CheckpointError, match="saturated_low"):
        engine.restore(EngineState.from_dict(broken))
    after = engine.checkpoint().to_dict()
    assert after["thermal"] == before["thermal"]
    assert after["strategy_state"]["policy"] == before["strategy_state"]["policy"]
    assert engine.windows == 5
    assert after == before


def test_bad_thermal_state_leaves_the_kernel_untouched():
    from repro.core.kernel import BatchedMemSpot
    from repro.params.thermal_params import AOHS_1_5, ISOLATED_AMBIENT

    kernel = BatchedMemSpot(AOHS_1_5, ISOLATED_AMBIENT)
    before = codec.state_dict(kernel)
    bad = {**before, "t_dram": before["t_dram"][:3] + ["hot"]}
    with pytest.raises(CheckpointError, match=r"t_dram\.3"):
        codec.load_state_dict(kernel, bad, "thermal")
    assert codec.state_dict(kernel) == before
