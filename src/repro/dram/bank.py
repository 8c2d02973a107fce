"""DDR2 bank state machines with full timing enforcement.

The paper fixes the close-page policy with auto-precharge, so every
request is an ACTIVATE followed by a CAS-with-auto-precharge.  A bank
therefore cycles IDLE -> ACTIVE -> (auto) PRECHARGING -> IDLE, and the
timing rules collapse to a small set of earliest-allowed times:

- ACT after previous ACT on the same bank: tRC, and also the implicit
  precharge must have finished (tRPD/tWPD + tRP after the CAS).
- CAS after ACT: tRCD.
- Read data valid tCL after READ; write data driven tWL after WRITE.
- ACT-to-ACT across banks of one DIMM: tRRD.
- Write burst to read CAS on the same DIMM data bus: tWTR.
- The DIMM's internal DDR2 data bus carries one burst at a time.

All times are seconds (floats); violations raise
:class:`repro.errors.TimingViolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, TimingViolationError
from repro.params.dram_timing import DDR2Timing
from repro.units import ns_to_s


@dataclass(frozen=True)
class AccessTiming:
    """The resolved schedule of one close-page access on a bank."""

    activate_s: float
    cas_s: float
    burst_start_s: float
    burst_end_s: float
    #: When the bank can accept its next ACTIVATE.
    bank_ready_s: float


class Bank:
    """One DRAM bank under the close-page auto-precharge policy."""

    def __init__(self, timing: DDR2Timing) -> None:
        self._timing = timing
        self._next_activate_s = 0.0
        self._accesses = 0

    @property
    def next_activate_s(self) -> float:
        """Earliest time the next ACTIVATE may be issued to this bank."""
        return self._next_activate_s

    @property
    def accesses(self) -> int:
        """Number of accesses this bank has served."""
        return self._accesses

    def plan_access(self, earliest_act_s: float, is_write: bool) -> AccessTiming:
        """Compute (without committing) the schedule of one access.

        Args:
            earliest_act_s: lower bound on the ACTIVATE time imposed by
                the caller (arrival, command-link delivery, tRRD, ...).
            is_write: write access (WRA) vs. read access (RDA).

        Returns:
            The fully-resolved :class:`AccessTiming`.
        """
        t = self._timing
        act_s = max(earliest_act_s, self._next_activate_s)
        cas_s = act_s + ns_to_s(t.trcd_ns)
        latency_ns = t.twl_ns if is_write else t.tcl_ns
        burst_start_s = cas_s + ns_to_s(latency_ns)
        burst_end_s = burst_start_s + ns_to_s(t.burst_duration_ns)
        if is_write:
            precharge_start_s = max(
                act_s + ns_to_s(t.tras_ns), cas_s + ns_to_s(t.twpd_ns)
            )
        else:
            precharge_start_s = max(
                act_s + ns_to_s(t.tras_ns), cas_s + ns_to_s(t.trpd_ns)
            )
        bank_ready_s = max(
            act_s + ns_to_s(t.trc_ns), precharge_start_s + ns_to_s(t.trp_ns)
        )
        return AccessTiming(
            activate_s=act_s,
            cas_s=cas_s,
            burst_start_s=burst_start_s,
            burst_end_s=burst_end_s,
            bank_ready_s=bank_ready_s,
        )

    def commit(self, schedule: AccessTiming) -> None:
        """Commit a planned access, enforcing the bank timing rules."""
        t = self._timing
        if schedule.activate_s + 1e-15 < self._next_activate_s:
            raise TimingViolationError(
                f"ACTIVATE at {schedule.activate_s:.9f}s violates bank ready "
                f"time {self._next_activate_s:.9f}s (tRC/tRP)"
            )
        if schedule.cas_s + 1e-15 < schedule.activate_s + ns_to_s(t.trcd_ns):
            raise TimingViolationError(
                f"CAS at {schedule.cas_s:.9f}s violates tRCD after ACTIVATE "
                f"at {schedule.activate_s:.9f}s"
            )
        self._next_activate_s = schedule.bank_ready_s
        self._accesses += 1

    def reset(self) -> None:
        """Return the bank to the idle, all-precharged state at time 0."""
        self._next_activate_s = 0.0
        self._accesses = 0


class DimmDevices:
    """The DRAM chips of one DIMM: banks plus shared-bus constraints.

    Tracks the cross-bank rules: tRRD between ACTIVATEs, tWTR between a
    write burst and the next read CAS, and single occupancy of the DIMM's
    internal DDR2 data bus.
    """

    def __init__(self, banks: int, timing: DDR2Timing) -> None:
        if banks < 1:
            raise ConfigurationError("a DIMM needs at least one bank")
        self._timing = timing
        self._banks = [Bank(timing) for _ in range(banks)]
        self._next_any_activate_s = 0.0
        self._data_bus_free_s = 0.0
        self._read_cas_blocked_until_s = 0.0

    def bank(self, index: int) -> Bank:
        """Access one bank (for tests and statistics)."""
        return self._banks[index]

    def schedule_access(
        self, bank_index: int, earliest_act_s: float, is_write: bool
    ) -> AccessTiming:
        """Schedule and commit one access on ``bank_index``.

        The schedule satisfies every bank and DIMM constraint: the caller
        only supplies the earliest ACT time (command delivery).  Returns
        the committed :class:`AccessTiming`.
        """
        if not 0 <= bank_index < len(self._banks):
            raise ConfigurationError(f"bank index {bank_index} out of range")
        t = self._timing
        bank = self._banks[bank_index]
        earliest = max(earliest_act_s, self._next_any_activate_s)
        schedule = bank.plan_access(earliest, is_write)
        # Honor the data-bus occupancy and write-to-read turnaround by
        # sliding the CAS (and burst) later while keeping the ACT fixed:
        # a CAS later than ACT + tRCD is always legal.
        burst_start_s = max(schedule.burst_start_s, self._data_bus_free_s)
        if not is_write:
            earliest_cas = self._read_cas_blocked_until_s
            latency_s = ns_to_s(t.tcl_ns)
            burst_start_s = max(burst_start_s, earliest_cas + latency_s)
        shift = burst_start_s - schedule.burst_start_s
        if shift > 0:
            cas_s = schedule.cas_s + shift
            if is_write:
                precharge_start_s = max(
                    schedule.activate_s + ns_to_s(t.tras_ns),
                    cas_s + ns_to_s(t.twpd_ns),
                )
            else:
                precharge_start_s = max(
                    schedule.activate_s + ns_to_s(t.tras_ns),
                    cas_s + ns_to_s(t.trpd_ns),
                )
            schedule = AccessTiming(
                activate_s=schedule.activate_s,
                cas_s=cas_s,
                burst_start_s=burst_start_s,
                burst_end_s=burst_start_s + ns_to_s(t.burst_duration_ns),
                bank_ready_s=max(
                    schedule.activate_s + ns_to_s(t.trc_ns),
                    precharge_start_s + ns_to_s(t.trp_ns),
                ),
            )
        bank.commit(schedule)
        self._next_any_activate_s = schedule.activate_s + ns_to_s(t.trrd_ns)
        self._data_bus_free_s = schedule.burst_end_s
        if is_write:
            self._read_cas_blocked_until_s = schedule.burst_end_s + ns_to_s(t.twtr_ns)
        return schedule

    def reset(self) -> None:
        """Reset every bank and bus constraint to time 0."""
        for bank in self._banks:
            bank.reset()
        self._next_any_activate_s = 0.0
        self._data_bus_free_s = 0.0
        self._read_cas_blocked_until_s = 0.0
