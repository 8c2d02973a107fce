"""Cache-aware job scheduling extension (§6 future work)."""

import pytest

from repro.errors import SchedulingError
from repro.workloads.batch import BatchScheduler
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import get_app
from repro.workloads.scheduling import CacheAwareScheduler, predicted_miss_rate


def test_predicted_miss_rate_empty():
    assert predicted_miss_rate([]) == 0.0


def test_predicted_miss_rate_monotone_in_corunners():
    swim = get_app("swim")
    one = predicted_miss_rate([swim])
    four = predicted_miss_rate([swim] * 4)
    assert four > one


def test_predicted_rate_prefers_mixed_pairs():
    """Two cache-hungry programs together predict a worse rate than a
    hungry/friendly pair — the signal the scheduler exploits."""
    art = get_app("art")          # cache-sensitive, hungry
    crafty = get_app("crafty")    # small working set
    both_hungry = predicted_miss_rate([art, art])
    mixed = predicted_miss_rate([art, crafty])
    assert mixed < both_hungry


def test_cache_aware_scheduler_is_a_batch_scheduler():
    scheduler = CacheAwareScheduler(get_mix("W1"), copies=2, cores=4)
    assert isinstance(scheduler, BatchScheduler)
    assert scheduler.total_jobs == 8
    assert len(scheduler.occupied_slots()) == 4


def test_cache_aware_refill_completes_batch():
    scheduler = CacheAwareScheduler(get_mix("W5"), copies=2, cores=4)
    guard = 0
    while not scheduler.done:
        progress = {
            slot: scheduler.job_at(slot).remaining_instructions
            for slot in scheduler.occupied_slots()
        }
        scheduler.advance(progress)
        guard += 1
        assert guard < 100
    assert scheduler.finished_jobs == 8


def test_cache_aware_refill_picks_low_contention_job():
    """Free one slot of a hungry trio; the scheduler should prefer the
    friendliest waiting app over the hungriest."""
    scheduler = CacheAwareScheduler(get_mix("W5"), copies=2, cores=4)
    # W5 = swim, art, wupwise, vpr.  Finish vpr (slot 3): waiting queue
    # holds copy #1 of all four apps; the refill should not pick art
    # (the hungriest) to join swim+art+wupwise.
    job = scheduler.job_at(3)
    assert job.app.name == "vpr"
    scheduler.advance({3: job.remaining_instructions})
    refilled = scheduler.job_at(3)
    assert refilled is not None
    assert refilled.app.name != "art"


def test_cache_aware_validation():
    with pytest.raises(SchedulingError):
        CacheAwareScheduler(get_mix("W1"), copies=0, cores=4)
    with pytest.raises(SchedulingError):
        CacheAwareScheduler(get_mix("W1"), copies=1, cores=0)
