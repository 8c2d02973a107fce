"""What remains of gang execution: the in-process vector backend, its
wiring, and the checkpoint serializer the gang path introduced.

Campaign cells always run solo now; :class:`VectorBackend` claims its
single-flight slots first and then computes each miss solo.  The
acceptance property is unchanged: its results equal a serial campaign's.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.specs import Chapter4Spec
from repro.campaign import Campaign
from repro.campaign.spec import engine_for_spec
from repro.campaign.stores import MemoryStore
from repro.cli import main
from repro.cluster import VectorBackend, backend_for
from repro.engine import CheckpointFile, EngineStateSerializer
from repro.errors import ConfigurationError

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


# -- the vector backend -----------------------------------------------------


def test_vector_backend_matches_serial_campaign():
    specs = list(_NO_LIMIT_FAMILY) + list(_TS_PAIR)
    serial = Campaign(specs, store=MemoryStore()).run()
    store = MemoryStore()
    with VectorBackend() as backend:
        rows = list(Campaign(specs, store=store, backend=backend).iter_run())
    assert [result for _, result, _, _ in rows] == serial
    assert [spec for spec, _, _, _ in rows] == specs  # spec order preserved
    assert all(not hit for _, _, hit, _ in rows)
    assert all(seconds > 0.0 for _, _, _, seconds in rows)

    # Second pass over a warm store: every cell self-serves as a hit.
    with VectorBackend() as backend:
        rows = list(Campaign(specs, store=store, backend=backend).iter_run())
    assert [result for _, result, _, _ in rows] == serial
    assert all(hit for _, _, hit, _ in rows)
    assert all(seconds == 0.0 for _, _, _, seconds in rows)


def test_vector_backend_validation():
    """The gang knobs are gone: passing one is an error, not a no-op."""
    with pytest.raises(TypeError, match="batch_cells"):
        VectorBackend(batch_cells=4)
    with pytest.raises(TypeError, match="kernel_backend"):
        VectorBackend(kernel_backend="numpy")


def test_backend_for_vector_wiring():
    assert isinstance(backend_for("vector"), VectorBackend)
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
    assert main(args + ["--backend", "vector"]) == 0
    vector_out = capsys.readouterr().out
    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ser"))
    assert main(args + ["--backend", "serial"]) == 0
    assert capsys.readouterr().out == vector_out


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
