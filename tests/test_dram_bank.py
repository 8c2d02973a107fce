"""DDR2 bank timing enforcement."""

import pytest

from repro.dram.bank import Bank, DimmDevices
from repro.errors import ConfigurationError, TimingViolationError
from repro.params.dram_timing import DDR2Timing
from repro.units import ns_to_s

TIMING = DDR2Timing()


def test_read_access_schedule():
    bank = Bank(TIMING)
    schedule = bank.plan_access(0.0, is_write=False)
    assert schedule.activate_s == 0.0
    assert schedule.cas_s == pytest.approx(ns_to_s(15.0))  # tRCD
    assert schedule.burst_start_s == pytest.approx(ns_to_s(30.0))  # + tCL
    assert schedule.burst_end_s == pytest.approx(
        ns_to_s(30.0 + TIMING.burst_duration_ns)
    )


def test_bank_ready_respects_trc():
    bank = Bank(TIMING)
    schedule = bank.plan_access(0.0, is_write=False)
    # tRC = 54 ns dominates read precharge paths for (5-5-5) DDR2-667.
    assert schedule.bank_ready_s >= ns_to_s(TIMING.trc_ns) - 1e-15


def test_write_ready_includes_twpd():
    bank = Bank(TIMING)
    schedule = bank.plan_access(0.0, is_write=True)
    # Precharge cannot start before CAS + tWPD; ready = + tRP.
    expected_min = schedule.cas_s + ns_to_s(TIMING.twpd_ns + TIMING.trp_ns)
    assert schedule.bank_ready_s >= expected_min - 1e-15


def test_commit_advances_bank_state():
    bank = Bank(TIMING)
    schedule = bank.plan_access(0.0, is_write=False)
    bank.commit(schedule)
    assert bank.next_activate_s == schedule.bank_ready_s
    assert bank.accesses == 1


def test_commit_rejects_early_activate():
    bank = Bank(TIMING)
    first = bank.plan_access(0.0, is_write=False)
    bank.commit(first)
    early = first  # same times again: violates tRC
    with pytest.raises(TimingViolationError):
        bank.commit(early)


def test_commit_rejects_trcd_violation():
    bank = Bank(TIMING)
    schedule = bank.plan_access(0.0, is_write=False)
    bad = type(schedule)(
        activate_s=schedule.activate_s,
        cas_s=schedule.activate_s + ns_to_s(5.0),  # < tRCD
        burst_start_s=schedule.burst_start_s,
        burst_end_s=schedule.burst_end_s,
        bank_ready_s=schedule.bank_ready_s,
    )
    with pytest.raises(TimingViolationError):
        bank.commit(bad)


def test_back_to_back_same_bank_spaced_by_trc():
    devices = DimmDevices(banks=8, timing=TIMING)
    first = devices.schedule_access(0, 0.0, is_write=False)
    second = devices.schedule_access(0, 0.0, is_write=False)
    assert second.activate_s - first.activate_s >= ns_to_s(TIMING.trc_ns) - 1e-15


def test_different_banks_spaced_by_trrd():
    devices = DimmDevices(banks=8, timing=TIMING)
    first = devices.schedule_access(0, 0.0, is_write=False)
    second = devices.schedule_access(1, 0.0, is_write=False)
    gap = second.activate_s - first.activate_s
    assert gap >= ns_to_s(TIMING.trrd_ns) - 1e-15
    assert gap < ns_to_s(TIMING.trc_ns)  # much tighter than same-bank


def test_data_bus_serializes_bursts():
    devices = DimmDevices(banks=8, timing=TIMING)
    schedules = [devices.schedule_access(b, 0.0, is_write=False) for b in range(4)]
    for earlier, later in zip(schedules, schedules[1:]):
        assert later.burst_start_s >= earlier.burst_end_s - 1e-15


def test_write_to_read_turnaround():
    devices = DimmDevices(banks=8, timing=TIMING)
    write = devices.schedule_access(0, 0.0, is_write=True)
    read = devices.schedule_access(1, 0.0, is_write=False)
    # Read CAS must wait tWTR after the write burst ends.
    assert read.cas_s >= write.burst_end_s + ns_to_s(TIMING.twtr_ns) - 1e-15


def test_reads_do_not_impose_twtr_on_reads():
    devices = DimmDevices(banks=8, timing=TIMING)
    first = devices.schedule_access(0, 0.0, is_write=False)
    second = devices.schedule_access(1, 0.0, is_write=False)
    # The second read is limited by its own tRRD + tRCD + tCL path
    # (39 ns), not by a write turnaround: it starts well before the
    # first burst end + tWTR would allow a post-write read.
    assert second.burst_start_s >= first.burst_end_s - 1e-15
    assert second.burst_start_s < first.burst_end_s + ns_to_s(TIMING.twtr_ns)


def test_total_accesses_counted():
    devices = DimmDevices(banks=4, timing=TIMING)
    for bank in range(4):
        devices.schedule_access(bank, 0.0, is_write=False)
    assert [devices.bank(bank).accesses for bank in range(4)] == [1, 1, 1, 1]


def test_reset_clears_state():
    devices = DimmDevices(banks=2, timing=TIMING)
    devices.schedule_access(0, 0.0, is_write=True)
    devices.reset()
    schedule = devices.schedule_access(0, 0.0, is_write=False)
    assert schedule.activate_s == 0.0


def test_bank_index_validation():
    devices = DimmDevices(banks=2, timing=TIMING)
    with pytest.raises(ConfigurationError):
        devices.schedule_access(2, 0.0, is_write=False)


def test_needs_at_least_one_bank():
    with pytest.raises(ConfigurationError):
        DimmDevices(banks=0, timing=TIMING)
