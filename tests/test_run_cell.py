"""One cell runner: every caller of ``run_cell`` yields the same bytes.

``run_cell`` is the only code that looks up, builds, restores, steps,
finishes, encodes and stores a cell.  Its three callers — a campaign's
whole run, a job's time-sliced cell and the checkpointed CLI run — must
therefore agree bit for bit with a plain uncached ``run_payload``, on a
Chapter 4 and a Chapter 5 cell, including when they stop mid-cell and
resume from a checkpoint.  A job and the CLI checkpoint at the same
slice boundaries, so each resumes the other's checkpoint.
"""

from __future__ import annotations

import json
import signal

import pytest

from repro.analysis.specs import Chapter5Spec
from repro.api import ReproClient, ServerRequest, SimulateRequest
from repro.api.envelope import dumps_canonical
from repro.campaign import (
    Campaign,
    JsonDirStore,
    MemoryStore,
    NullStore,
    run_cell,
    run_payload,
)
from repro.cli import main
from repro.core.kernel import BatchedMemSpot
from repro.engine import CheckpointFile
from repro.engine.progress import _CURRENT_LABEL, PROGRESS
from repro.errors import ConfigurationError
from repro.jobs import (
    COMPLETED,
    QUEUED,
    JobQueue,
    JobsManager,
    job_progress_label,
)

#: The two cells every caller runs, as typed single-cell requests.
CELLS = {
    "ch4": SimulateRequest(mix="W1", policy="ts", copies=1),
    "ch5": ServerRequest(platform="PE1950", mix="W1", policy="bw", copies=1),
}


def _spec(request):
    """The run spec of a single-cell request."""
    ((spec, _),) = request.cells()
    return spec


def _via_campaign(request, tmp_path) -> dict:
    spec = _spec(request)
    ((_, outcome),) = Campaign([spec], store=MemoryStore()).iter_outcomes()
    assert not outcome.hit
    return outcome.payload


def _via_job(request, tmp_path) -> dict:
    """A job cell sliced every 50 windows, drained after its first
    slice, then resumed by a fresh scheduler from the persisted state."""
    store = MemoryStore()
    jobs_dir = str(tmp_path / "jobs")
    first = JobsManager(jobs_dir, store=store, window_slice=50)
    job_id = first.queue.submit("t", request).job_id
    first.stop()  # drain at the first slice boundary
    first._execute(first.queue.next_ready(timeout_s=0))
    parked = first.queue.get(job_id)
    assert parked.status == QUEUED
    (state,) = parked.cell_states.values()
    assert state.windows == 50

    revived = JobsManager(jobs_dir, store=store, window_slice=50)
    assert revived.queue.recover()["requeued"] == 1
    record = revived.queue.next_ready(timeout_s=0)
    revived._execute(record)
    assert record.status == COMPLETED
    assert "cell_resumed" in [event["event"] for event in record.events]
    return store.get(_spec(request).key())


def _via_checkpoint_file(request, tmp_path) -> dict:
    """An interrupted checkpointed run resumed from its file."""
    spec = _spec(request)
    path = tmp_path / f"{spec.key()}.checkpoint.json"
    checkpoint = CheckpointFile(path)

    def on_slice(state) -> bool:
        checkpoint.write(state)
        return state.windows >= 80  # killed right after the window-80 write

    run_cell(spec, NullStore(), window_slice=40, on_slice=on_slice)
    assert path.exists()
    store = MemoryStore()
    envelope = ReproClient(store=store).run_resumable(
        request, checkpoint_dir=tmp_path, checkpoint_every=40, resume=True,
    )
    assert envelope.provenance.cache == "miss"
    assert not path.exists()  # removed on completion
    return store.get(spec.key())


@pytest.fixture
def stepped(monkeypatch) -> list[int]:
    """``[n]``: the thermal-kernel steps, one per window, since reset."""
    count = [0]
    kernel_step = BatchedMemSpot.step

    def counted(memspot, *args):
        count[0] += 1
        return kernel_step(memspot, *args)

    monkeypatch.setattr(BatchedMemSpot, "step", counted)
    return count


def _reference(request, stepped) -> tuple[dict, int]:
    """The uncached payload of ``request``'s cell and its window count;
    resets ``stepped``."""
    expected, hit, _ = run_payload(_spec(request), NullStore())
    assert not hit
    windows, stepped[0] = stepped[0], 0
    assert windows > 0
    return expected, windows


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize(
    "caller", [_via_campaign, _via_job, _via_checkpoint_file],
    ids=["campaign", "job-sliced-resumed", "checkpoint-file"],
)
def test_every_run_cell_caller_yields_the_reference_bytes(
    caller, cell, tmp_path, stepped
):
    """Same payload bytes, and no window stepped twice: a resumed
    caller really continued from its checkpoint instead of rerunning."""
    request = CELLS[cell]
    expected, windows = _reference(request, stepped)
    got = caller(request, tmp_path)
    assert dumps_canonical(got) == dumps_canonical(expected)
    assert stepped[0] == windows


#: The ``repro simulate`` arguments of the Chapter 4 cell.
SIMULATE_ARGS = ["simulate", "--mix", "W1", "--policy", "ts", "--copies", "1"]


def test_a_cli_checkpoint_resumes_as_a_job_cell(tmp_path, monkeypatch, stepped):
    """``repro simulate --checkpoint-dir``, killed after its second
    checkpoint, leaves a state a job cell resumes to the reference
    bytes, stepping each window once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    request = CELLS["ch4"]
    key = _spec(request).key()
    expected, windows = _reference(request, stepped)
    write = CheckpointFile.write

    def killed_after_window_100(checkpoint, state) -> None:
        write(checkpoint, state)
        if state.windows >= 100:
            raise KeyboardInterrupt

    monkeypatch.setattr(CheckpointFile, "write", killed_after_window_100)
    ckpt_dir = tmp_path / "ckpt"
    with pytest.raises(KeyboardInterrupt):
        main([*SIMULATE_ARGS, "--checkpoint-dir", str(ckpt_dir),
              "--checkpoint-every", "50"])
    monkeypatch.setattr(CheckpointFile, "write", write)
    state = CheckpointFile(ckpt_dir / f"{key}.checkpoint.json").load()
    assert state.windows == 100

    jobs_dir = tmp_path / "jobs"
    queue = JobQueue(jobs_dir)
    record = queue.submit("t", request)
    record.cell_states = {key: state}
    queue.store.save(record)
    store = MemoryStore()
    revived = JobsManager(str(jobs_dir), store=store, window_slice=50)
    assert revived.queue.recover()["requeued"] == 1
    record = revived.queue.next_ready(timeout_s=0)
    revived._execute(record)
    assert record.status == COMPLETED
    assert f"{key} from window 100" in [e.get("detail") for e in record.events]
    assert dumps_canonical(store.get(key)) == dumps_canonical(expected)
    assert stepped[0] == windows


def test_a_job_cell_state_resumes_through_the_cli(
    tmp_path, monkeypatch, capsys, stepped
):
    """A job's ``cell_states`` entry, saved as the CLI's checkpoint
    file, resumes through ``repro simulate --resume`` to the reference
    bytes, stepping each window once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    request = CELLS["ch4"]
    key = _spec(request).key()
    expected, windows = _reference(request, stepped)
    first = JobsManager(
        str(tmp_path / "jobs"), store=MemoryStore(), window_slice=50
    )
    job_id = first.queue.submit("t", request).job_id
    first.stop()  # drain at the first slice boundary
    first._execute(first.queue.next_ready(timeout_s=0))
    (state,) = first.queue.get(job_id).cell_states.values()
    assert state.windows == 50

    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    path = ckpt_dir / f"{key}.checkpoint.json"
    path.write_text(json.dumps(state.to_dict()))
    assert main([*SIMULATE_ARGS, "--checkpoint-dir", str(ckpt_dir),
                 "--resume", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"]["cache"] == "miss"
    payload = JsonDirStore(tmp_path / "cache").get(key)
    assert dumps_canonical(payload) == dumps_canonical(expected)
    assert not path.exists()
    assert stepped[0] == windows


def test_job_cells_publish_progress_under_the_job_label(tmp_path):
    """While a sliced job cell runs, the active progress label — and
    every snapshot the engine publishes — is ``<job-id>/<key>``."""
    PROGRESS.clear()
    request = CELLS["ch4"]
    key = _spec(request).key()
    manager = JobsManager(
        str(tmp_path / "jobs"), store=MemoryStore(), window_slice=50
    )
    job_id = manager.queue.submit("t", request).job_id
    seen: list[tuple[str | None, list[str]]] = []

    def spy(record):
        seen.append((_CURRENT_LABEL.get(), sorted(PROGRESS.snapshot())))
        return None

    manager._interruption = spy
    manager._execute(manager.queue.next_ready(timeout_s=0))
    label = job_progress_label(job_id, key)
    assert label == f"{job_id}/{key}"
    # Every slice boundary runs under the job label; the last check,
    # between cells, runs after the cell's label was popped.
    *slices, (between_cells, _) = seen
    assert len(slices) > 10 and between_cells is None
    assert {current for current, _ in slices} == {label}
    published = {name for _, names in seen for name in names}
    assert published == {label}
    assert _CURRENT_LABEL.get() is None


def test_run_cell_without_on_slice_runs_every_slice_to_the_end():
    spec = _spec(CELLS["ch5"])
    outcome = run_cell(spec, NullStore(), window_slice=50)
    assert outcome.state is None and outcome.windows > 50
    expected, _, _ = run_payload(spec, NullStore())
    assert dumps_canonical(outcome.payload) == dumps_canonical(expected)


def test_a_resumed_cell_skips_the_lookup_and_a_stopped_one_stores_nothing():
    spec = _spec(CELLS["ch5"])
    store = MemoryStore()
    stopped = run_cell(spec, store, window_slice=30, on_slice=lambda state: 1)
    assert stopped.payload is None and stopped.result is None
    assert stopped.state.windows == stopped.windows == 30
    assert store.get(spec.key()) is None
    finished = run_cell(spec, store, resume=stopped.state)
    assert not finished.hit and finished.windows > 30
    # Cached now, but a checkpoint still continues rather than hits.
    again = run_cell(spec, store, resume=stopped.state)
    assert not again.hit and again.payload == finished.payload
    assert run_cell(spec, store, window_slice=30).hit


def test_a_zero_window_slice_is_refused_not_stepped_forever():
    """A slice of no windows never reaches the end of the cell; an
    alarm fails the test if the call hangs instead of refusing."""

    def hung(signum, frame):
        raise AssertionError("run_cell(window_slice=0) did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(ConfigurationError, match="window_slice"):
            run_cell(
                Chapter5Spec(mix="W1", policy="bw", copies=1), NullStore(),
                window_slice=0,
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_bad_window_slice_is_refused_before_the_lookup():
    """A warm cell does not hide a bad slice length."""
    spec = _spec(CELLS["ch5"])
    store = MemoryStore()
    run_cell(spec, store)
    for window_slice in (0, -1, True, 2.5, "50"):
        with pytest.raises(ConfigurationError, match="window_slice"):
            run_cell(spec, store, window_slice=window_slice)
    assert run_cell(spec, store, window_slice=1).hit
