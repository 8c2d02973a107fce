"""Cache-aware job scheduling (the paper's §6 future-work direction).

"Third, we can study shared cache-aware OS job scheduling to reduce
total memory traffic and DRAM heat generation."

The baseline batch scheduler refills a freed core with the next waiting
job round-robin.  :class:`CacheAwareScheduler` instead picks the waiting
job that minimizes the *predicted aggregate miss rate* of the resulting
co-running set, using the same shared-cache contention model the window
model uses.  Pairing cache-friendly programs with cache-hungry ones
lowers total traffic, which under a thermal limit converts directly into
performance.
"""

from __future__ import annotations

from repro.cache.sharing import SharedCacheModel
from repro.core.windowmodel import L2_CAPACITY_BYTES, MAX_FREQUENCY_HZ
from repro.workloads.batch import BatchJob, BatchScheduler
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import AppProfile


def predicted_miss_rate(apps: list[AppProfile]) -> float:
    """Predicted aggregate miss rate (misses/s) of a co-running set in
    the Table 4.1 L2.

    Uses a nominal per-app IPC of 1/CPI_base at the top frequency for
    the access rates — the scheduler needs a ranking, not an absolute
    number.
    """
    if not apps:
        return 0.0
    rates = [MAX_FREQUENCY_HZ / app.cpi_base * app.apki / 1000.0 for app in apps]
    return SharedCacheModel(L2_CAPACITY_BYTES).total_miss_rate_per_s(
        rates, [app.mrc for app in apps]
    )


class CacheAwareScheduler(BatchScheduler):
    """Batch scheduler whose refill step minimizes predicted miss rate.

    Drop-in replacement for :class:`repro.workloads.batch.BatchScheduler`:
    same slots/advance interface, different choice of which waiting job
    fills a freed core.
    """

    def __init__(self, mix: WorkloadMix, copies: int, cores: int) -> None:
        self._initialized = False
        super().__init__(mix, copies, cores)
        self._initialized = True

    def _fill_slots(self) -> None:
        """Greedy refill: per empty slot, pick the waiting job whose app
        minimizes the predicted aggregate miss rate with the residents.

        The *initial* fill stays round-robin (one copy of each mix
        application, the paper's §4.3.2 intent); awareness applies only
        when a finished job frees a core mid-batch.
        """
        if not self._initialized:
            super()._fill_slots()
            return
        for index in range(self._cores):
            if self._slots[index] is not None or not self._queue:
                continue
            residents = [job.app for job in self._slots if job is not None]
            best_queue_index = 0
            best_rate = float("inf")
            seen_apps: set[str] = set()
            for queue_index, candidate in enumerate(self._queue):
                if candidate.app.name in seen_apps:
                    continue  # identical apps predict identically
                seen_apps.add(candidate.app.name)
                rate = predicted_miss_rate(residents + [candidate.app])
                if rate < best_rate:
                    best_rate = rate
                    best_queue_index = queue_index
            self._slots[index] = self._queue.pop(best_queue_index)
