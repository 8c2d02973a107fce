"""Workload profiles, mixes and the batch scheduler."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, WorkloadError
from repro.workloads.batch import BatchScheduler
from repro.workloads.mixes import SIMULATION_MIXES, WORKLOAD_MIXES, get_mix
from repro.workloads.profiles import (
    SPEC2000_HIGH,
    SPEC2000_MODERATE,
    get_app,
)


def test_twelve_memory_intensive_cpu2000_selections():
    # §4.3.2: eight high + four moderate.
    assert len(SPEC2000_HIGH) == 8
    assert len(SPEC2000_MODERATE) == 4
    for name in SPEC2000_HIGH + SPEC2000_MODERATE:
        assert get_app(name).suite == "cpu2000"


def test_cpu2006_selections_present():
    # Table 5.2 programs.
    for name in ("milc", "leslie3d", "soplex", "GemsFDTD",
                 "libquantum", "lbm", "omnetpp", "wrf"):
        assert get_app(name).suite == "cpu2006"


def test_unknown_app_raises():
    with pytest.raises(WorkloadError):
        get_app("doom")


def test_high_apps_are_more_intense_than_low():
    """The Fig. 5.5 intensity ordering: high-class programs generate more
    traffic per instruction at a quarter-cache share than the quiet ones."""
    def intensity(name):
        app = get_app(name)
        return app.misses_per_instruction(1024 * 1024)

    quiet = ("gzip", "crafty", "mesa", "eon", "sixtrack")
    for hot in SPEC2000_HIGH:
        for cold in quiet:
            assert intensity(hot) > intensity(cold)


def test_table_4_2_mixes():
    assert get_mix("W1").app_names == ("swim", "mgrid", "applu", "galgel")
    assert get_mix("W2").app_names == ("art", "equake", "lucas", "fma3d")
    assert get_mix("W8").app_names == ("galgel", "fma3d", "vpr", "apsi")
    assert len(SIMULATION_MIXES) == 8


def test_table_5_2_cpu2006_mixes():
    assert get_mix("W11").app_names == ("milc", "leslie3d", "soplex", "GemsFDTD")
    assert get_mix("W12").app_names == ("libquantum", "lbm", "omnetpp", "wrf")


def test_unknown_mix_raises():
    with pytest.raises(WorkloadError):
        get_mix("W99")


def test_every_mix_resolves_profiles():
    for mix in WORKLOAD_MIXES.values():
        assert len(mix.apps) == len(mix.app_names)


def test_batch_fills_slots_round_robin():
    scheduler = BatchScheduler(get_mix("W1"), copies=2, cores=4)
    apps = [scheduler.job_at(slot).app.name for slot in range(4)]
    assert apps == ["swim", "mgrid", "applu", "galgel"]
    assert scheduler.total_jobs == 8


def test_batch_refills_on_completion():
    scheduler = BatchScheduler(get_mix("W1"), copies=2, cores=4)
    first = scheduler.job_at(0)
    finished = scheduler.advance({0: first.app.instructions})
    assert len(finished) == 1
    # Slot 0 now holds the first waiting job (swim copy #1).
    assert scheduler.job_at(0).app.name == "swim"
    assert scheduler.finished_jobs == 1


def test_batch_partial_progress():
    scheduler = BatchScheduler(get_mix("W1"), copies=1, cores=4)
    job = scheduler.job_at(0)
    before = job.remaining_instructions
    scheduler.advance({0: before / 2})
    assert scheduler.job_at(0) is job
    assert job.remaining_instructions == pytest.approx(before / 2)


def test_batch_done_after_all_work():
    scheduler = BatchScheduler(get_mix("W1"), copies=1, cores=4)
    while not scheduler.done:
        progress = {
            slot: scheduler.job_at(slot).remaining_instructions
            for slot in scheduler.occupied_slots()
        }
        scheduler.advance(progress)
    assert scheduler.finished_jobs == 4
    assert scheduler.remaining_instructions() == 0.0


def test_batch_running_apps_subset():
    scheduler = BatchScheduler(get_mix("W1"), copies=1, cores=4)
    running = scheduler.running_apps([1, 3])
    assert set(running) == {1, 3}
    assert running[1].name == "mgrid"


def test_batch_tail_leaves_empty_slots():
    scheduler = BatchScheduler(get_mix("W1"), copies=1, cores=4)
    # Finish three jobs; the queue is empty so three slots drain.
    for slot in range(3):
        scheduler.advance({slot: scheduler.job_at(slot).app.instructions})
    assert scheduler.occupied_slots() == [3]


def test_batch_progress_on_empty_slot_rejected():
    scheduler = BatchScheduler(get_mix("W1"), copies=1, cores=4)
    scheduler.advance({0: scheduler.job_at(0).app.instructions})
    for slot in range(4):
        if scheduler.job_at(slot) is None:
            with pytest.raises(SchedulingError):
                scheduler.advance({slot: 100.0})
            break


@pytest.mark.parametrize("bad", [float("nan"), -1.0], ids=["nan", "negative"])
def test_nan_or_negative_progress_is_refused(bad):
    """Regression: ``max(0.0, nan)`` is ``0.0``, so NaN progress once
    retired a job (swim, 3.4e11 instructions left) in one window."""
    scheduler = BatchScheduler(get_mix("W1"), copies=1, cores=4)
    job = scheduler.job_at(0)
    before = job.remaining_instructions
    with pytest.raises(SchedulingError):
        scheduler.advance({0: bad})
    assert scheduler.finished_jobs == 0
    assert scheduler.job_at(0) is job
    assert job.remaining_instructions == before


def _reference_advance(remaining: float, instructions: float) -> tuple[float, bool]:
    """The per-job arithmetic ``advance`` inlines: clamp at zero, done
    once nothing is left."""
    left = max(0.0, remaining - instructions)
    return left, left <= 0.0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    fractions=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            st.just(1.0),
            st.just(0.0),
        ),
        min_size=4,
        max_size=4,
    ),
    exact_slot=st.integers(min_value=-1, max_value=3),
)
def test_inline_advance_matches_per_job_arithmetic(fractions, exact_slot):
    """Partial, exact and overshooting progress leave every job with the
    bits ``max(0.0, remaining - instructions)`` gives, and finish
    exactly the jobs that reach zero."""
    scheduler = BatchScheduler(get_mix("W2"), copies=2, cores=4)
    # Start from a state with non-round remainders.
    scheduler.advance({slot: 1.234567e9 * (slot + 1) for slot in range(4)})
    jobs = [scheduler.job_at(slot) for slot in range(4)]
    progress = {}
    expected = []
    for slot, (job, fraction) in enumerate(zip(jobs, fractions)):
        remaining = job.remaining_instructions
        instructions = remaining if slot == exact_slot else remaining * fraction
        progress[slot] = instructions
        expected.append(_reference_advance(remaining, instructions))
    finished = scheduler.advance(progress)
    assert list(finished) == [
        job for job, (_, done) in zip(jobs, expected) if done
    ]
    for job, (left, _) in zip(jobs, expected):
        assert job.remaining_instructions == left
        assert math.copysign(1.0, job.remaining_instructions) == 1.0


def test_batch_validation():
    with pytest.raises(SchedulingError):
        BatchScheduler(get_mix("W1"), copies=0, cores=4)
    with pytest.raises(SchedulingError):
        BatchScheduler(get_mix("W1"), copies=1, cores=0)


def test_remaining_instructions_decreases_monotonically():
    scheduler = BatchScheduler(get_mix("W2"), copies=1, cores=4)
    previous = scheduler.remaining_instructions()
    for _ in range(5):
        scheduler.advance({slot: 1e9 for slot in scheduler.occupied_slots()})
        now = scheduler.remaining_instructions()
        assert now < previous
        previous = now
