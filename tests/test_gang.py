"""Gang execution: planning, bit-identity with serial runs, the vector
backend, and checkpoint/resume of ganged cells in a fresh process.

The acceptance property mirrors the engine suite's: however cells are
ganged (mixed policies, retirement mid-stream, checkpoint and restore
in a new interpreter), the per-cell encoded payloads equal
a solo :func:`engine_for_spec(...).run_to_completion()` byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.campaign import Campaign
from repro.campaign.spec import engine_for_spec, runner_for, spec_key
from repro.campaign.stores import MemoryStore
from repro.cli import main
from repro.cluster import VectorBackend, backend_for
from repro.engine import EngineStateSerializer, GangStrategy, plan_gangs
from repro.errors import CheckpointError, ConfigurationError

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: A fast family: thermally-insensitive cells differing only in the
#: inlet temperature, plus two thermally-sensitive partners.
_BASE = Chapter4Spec(mix="W1", policy="no-limit", copies=1)
_NO_LIMIT_FAMILY = tuple(
    replace(_BASE, inlet_delta_c=delta) for delta in (0.0, 1.0, 2.0)
)
_TS_PAIR = (
    replace(_BASE, policy="ts"),
    replace(_BASE, policy="ts", inlet_delta_c=1.0),
)


def _cells(specs):
    return [(spec_key(spec), spec) for spec in specs]


def _payload(spec, result) -> dict:
    return runner_for(spec.kind).encode(result)


def _serial_payloads(specs) -> dict[str, dict]:
    return {
        spec_key(spec): _payload(spec, engine_for_spec(spec).run_to_completion())
        for spec in specs
    }


# -- planning ---------------------------------------------------------------


def test_plan_gangs_groups_by_compatibility():
    specs = list(_NO_LIMIT_FAMILY) + list(_TS_PAIR) + [
        replace(_BASE, copies=2),  # other workload, same cadence
        Chapter5Spec(mix="W1", policy="bw", copies=1),  # foreign group
    ]
    plan = plan_gangs(_cells(specs), batch_cells=16)
    # Every ch4 cell shares one gang whatever its policy or workload;
    # the lone ch5 cell has no partner and runs solo.
    assert [len(g.cells) for g in plan.gangs] == [6]
    assert [spec.kind for _, spec in plan.solo] == ["ch5"]
    assert plan.ganged_cells == 6


def test_plan_gangs_chunks_and_demotes_singletons():
    family = [replace(_BASE, inlet_delta_c=0.5 * i) for i in range(5)]
    plan = plan_gangs(_cells(family), batch_cells=2)
    assert [len(g.cells) for g in plan.gangs] == [2, 2]
    # The fifth cell's chunk of one is pure overhead -> solo.
    assert len(plan.solo) == 1


def test_plan_gangs_rejects_tiny_batches():
    with pytest.raises(ConfigurationError, match="batch_cells"):
        plan_gangs(_cells(_NO_LIMIT_FAMILY), batch_cells=1)


def test_gang_strategy_validation():
    with pytest.raises(ConfigurationError, match="at least one"):
        GangStrategy([])
    coarse = engine_for_spec(replace(_TS_PAIR[0], dtm_interval_s=0.02))
    with pytest.raises(ConfigurationError, match="window length"):
        GangStrategy([engine_for_spec(_TS_PAIR[1]), coarse])


# -- bit-identity -----------------------------------------------------------


@pytest.mark.parametrize("backend", ["python", "auto"])
def test_gang_results_match_serial_bit_for_bit(backend):
    specs = list(_NO_LIMIT_FAMILY) + list(_TS_PAIR)
    serial = _serial_payloads(specs)
    plan = plan_gangs(_cells(specs), batch_cells=16, backend=backend)
    assert not plan.solo
    for planned in plan.gangs:
        for (key, spec), result in zip(
            planned.cells, planned.gang.run_to_completion()
        ):
            assert _payload(spec, result) == serial[key]


@pytest.mark.parametrize("backend", ["python", "auto"])
def test_fallback_gang_matches_serial(backend):
    """Cells recording traces step through the per-cell fallback path
    (each engine's own begin/apply halves around one grid step) and
    still match serial runs byte for byte."""
    from repro.obs.metrics import METRICS

    specs = [replace(spec, record_trace=True) for spec in _TS_PAIR]
    serial = _serial_payloads(specs)
    (planned,) = plan_gangs(_cells(specs), batch_cells=16, backend=backend).gangs
    before = METRICS.counter_value("repro_gang_step_path_total", path="fallback")
    results = planned.gang.run_to_completion()
    after = METRICS.counter_value("repro_gang_step_path_total", path="fallback")
    assert after > before
    for (key, spec), result in zip(planned.cells, results):
        assert _payload(spec, result) == serial[key]


def test_gang_restore_rejects_wrong_arity():
    gang = plan_gangs(_cells(_NO_LIMIT_FAMILY), batch_cells=16).gangs[0].gang
    with pytest.raises(CheckpointError, match="restore needs"):
        gang.restore(gang.checkpoint()[:1])


#: Fresh-interpreter driver: rebuild the same gang, restore the
#: per-cell snapshots, finish, print the encoded payloads in order.
_GANG_RESTORE_DRIVER = """
import json, sys
sys.path.insert(0, {src!r})
import repro.analysis.specs  # registers the ch4/ch5 spec types
from repro.campaign.spec import engine_for_spec, runner_for
from repro.cluster.wire import cell_from_wire
from repro.engine import EngineState, GangStrategy

request = json.load(sys.stdin)
specs = [cell_from_wire(raw) for raw in request["cells"]]
gang = GangStrategy(
    [engine_for_spec(spec) for spec in specs], backend="python"
)
gang.restore([EngineState.from_dict(raw) for raw in request["states"]])
payloads = [
    runner_for(spec.kind).encode(result)
    for spec, result in zip(specs, gang.run_to_completion())
]
print(json.dumps(payloads))
"""


@pytest.mark.parametrize(
    "specs", [_NO_LIMIT_FAMILY + _TS_PAIR], ids=["lockstep"]
)
def test_gang_checkpoint_restores_bit_identically_in_fresh_process(specs):
    from repro.cluster.wire import cell_to_wire

    serial = _serial_payloads(specs)
    plan = plan_gangs(_cells(specs), batch_cells=16, backend="python")
    (planned,) = plan.gangs
    assert planned.gang.step_windows(211) == 211
    states = [state.to_dict() for state in planned.gang.checkpoint()]

    request = {
        "cells": [cell_to_wire(spec) for _, spec in planned.cells],
        "states": states,
    }
    proc = subprocess.run(
        [sys.executable, "-c", _GANG_RESTORE_DRIVER.format(src=str(SRC_DIR))],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    resumed = json.loads(proc.stdout)
    expected = [serial[key] for key, _ in planned.cells]
    # JSON round trip == bit identity (shortest-repr floats).
    assert resumed == json.loads(json.dumps(expected))


# -- the vector backend -----------------------------------------------------


def test_vector_backend_matches_serial_campaign():
    specs = list(_NO_LIMIT_FAMILY) + list(_TS_PAIR)
    serial = Campaign(specs, store=MemoryStore()).run()
    store = MemoryStore()
    with VectorBackend(batch_cells=4) as backend:
        rows = list(Campaign(specs, store=store, backend=backend).iter_run())
    assert [result for _, result, _, _ in rows] == serial
    assert [spec for spec, _, _, _ in rows] == specs  # spec order preserved
    assert all(not hit for _, _, hit, _ in rows)
    assert all(seconds > 0.0 for _, _, _, seconds in rows)

    # Second pass over a warm store: every cell self-serves as a hit.
    with VectorBackend(batch_cells=4) as backend:
        rows = list(Campaign(specs, store=store, backend=backend).iter_run())
    assert [result for _, result, _, _ in rows] == serial
    assert all(hit for _, _, hit, _ in rows)
    assert all(seconds == 0.0 for _, _, _, seconds in rows)


def test_vector_backend_validation():
    with pytest.raises(ConfigurationError, match="batch_cells"):
        VectorBackend(batch_cells=1)
    with pytest.raises(ConfigurationError, match="kernel backend"):
        VectorBackend(kernel_backend="fortran")


def test_backend_for_vector_wiring():
    backend = backend_for("vector", batch_cells=8)
    assert isinstance(backend, VectorBackend)
    assert backend.batch_cells == 8
    assert backend_for("vector").batch_cells == 16
    with pytest.raises(ConfigurationError, match="--batch-cells"):
        backend_for("serial", batch_cells=8)
    with pytest.raises(ConfigurationError, match="--jobs"):
        backend_for("vector", jobs=4)
    with pytest.raises(ConfigurationError, match="--workers"):
        backend_for("vector", workers=("http://x",))


def test_cli_campaign_vector_matches_serial(capsys, tmp_path, monkeypatch):
    from repro.campaign import GLOBAL_MEMORY

    args = ["campaign", "--mixes", "W1", "--policies", "no-limit,ts",
            "--copies", "1"]
    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "vec"))
    assert main(args + ["--backend", "vector", "--batch-cells", "2"]) == 0
    vector_out = capsys.readouterr().out
    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ser"))
    assert main(args + ["--backend", "serial"]) == 0
    assert capsys.readouterr().out == vector_out


def test_cli_batch_cells_requires_vector(capsys):
    code = main(["campaign", "--mixes", "W1", "--policies", "ts",
                 "--copies", "1", "--batch-cells", "4"])
    assert code != 0
    assert "--batch-cells" in capsys.readouterr().err


# -- the checkpoint serializer ----------------------------------------------


def test_serializer_output_matches_plain_dumps_across_writes():
    engine = engine_for_spec(_TS_PAIR[0])
    serializer = EngineStateSerializer()
    for _ in range(3):
        engine.step_windows(97)
        state = engine.checkpoint()
        assert serializer.serialize(state) == json.dumps(
            state.to_dict(), sort_keys=True
        )


def test_checkpoint_file_written_via_serializer_loads_identically(tmp_path):
    from repro.engine import CheckpointFile

    engine = engine_for_spec(_TS_PAIR[0])
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


# -- lockstep vectorization: property-based bit-identity --------------------


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Policy families the vectorized lockstep path must reproduce
#: bit-for-bit: table-driven (ts), latch-driven (bw), multi-actuator
#: (comb), rotating (acg), DVFS (cdvfs), constant (no-limit) and the
#: PID controllers — alone and mixed within one gang.
_LOCKSTEP_FAMILIES = (
    ("ts",),
    ("bw",),
    ("comb",),
    ("bw+pid",),
    ("ts", "bw"),
    ("comb", "bw+pid"),
    ("no-limit", "acg"),
    ("cdvfs", "acg+pid", "cdvfs+pid"),
)


def _lockstep_specs(policies, delta_step):
    return [
        replace(_BASE, policy=policy, inlet_delta_c=delta_step * i)
        for policy in policies
        for i in range(2)
    ]


@settings(max_examples=16, derandomize=True, deadline=None)
@given(
    policies=st.sampled_from(_LOCKSTEP_FAMILIES),
    delta_step=st.floats(
        min_value=0.01, max_value=0.75,
        allow_nan=False, allow_infinity=False,
    ),
    backend=st.sampled_from(("python", "auto")),
    windows=st.integers(min_value=40, max_value=160),
)
def test_lockstep_gang_prefix_bitwise_identical_to_solo(
    policies, delta_step, backend, windows
):
    """Property: any gang's full engine state after
    N windows — temperatures, energy integrals, scheduler, policy
    latches and PID integrals — equals the solo engines' bit for bit,
    on both kernel backends."""
    specs = _lockstep_specs(policies, delta_step)
    solo = [engine_for_spec(spec) for spec in specs]
    for engine in solo:
        engine.step_windows(windows)
    plan = plan_gangs(_cells(specs), batch_cells=16, backend=backend)
    assert len(plan.gangs) == 1 and not plan.solo
    gang = plan.gangs[0].gang
    gang.step_windows(windows)
    gang_states = [state.to_dict() for state in gang.checkpoint()]
    solo_states = [engine.checkpoint().to_dict() for engine in solo]
    assert gang_states == solo_states


def test_lockstep_gang_identity_without_numpy(monkeypatch):
    """The pure-python vector path (no NumPy importable at all) stays
    bit-identical to solo engines, and the gang metrics register."""
    import repro.core.kernel as kernel
    from repro.obs.metrics import METRICS

    monkeypatch.setattr(kernel, "_import_numpy", lambda: None)
    specs = _lockstep_specs(("ts", "bw+pid"), 0.4)
    solo = [engine_for_spec(spec) for spec in specs]
    for engine in solo:
        engine.step_windows(120)
    plan = plan_gangs(_cells(specs), batch_cells=16)
    gang = plan.gangs[0].gang
    assert gang.kernel_backend == "python"
    gang.step_windows(120)
    assert [s.to_dict() for s in gang.checkpoint()] == [
        e.checkpoint().to_dict() for e in solo
    ]
    rendered = METRICS.render_text()
    for name in (
        "repro_gang_planned_total",
        "repro_gang_cells_total",
        "repro_gang_step_path_total",
    ):
        assert name in rendered
