"""Reference-normalized host timing.

The CPU this benchmark runs on changes speed by tens of percent within
a few hundred milliseconds, and thread CPU time follows wall time, so
neither clock alone repeats.  :class:`ProbeClock` therefore interleaves
a fixed reference workload (the *probe*) with the work being timed: a
``SIGALRM`` interval timer runs the probe in the main thread every
``period_s`` while the clock is running.  An operation's host time is
its wall time minus the time spent inside probes, and its normalized
time is that host time scaled by ``REF_NOMINAL_S / mean(probe time)``
over the probes that ran during it (or, for operations too short to
contain enough probes, over the most recent probes).  The result reads
as "seconds on a CPU that runs the probe in ``REF_NOMINAL_S``".

This module imports only the standard library, so ``run.py`` can start
the clock before it imports the program.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

#: Simulated windows per probe (about half a millisecond).
PROBE_WINDOWS = 30
#: Probe time on the host the constants were fixed on; normalized
#: times are expressed at this probe speed.
REF_NOMINAL_S = 0.00060
#: Operations with fewer probes inside than this borrow the most
#: recent ``RECENT_PROBES`` probes instead.
MIN_PROBES = 8
RECENT_PROBES = 16


# -- the probe: a fixed miniature of a DTM simulation loop ----------------------
#
# The probe mixes the operations the simulator spends its time on --
# small method calls, a memoized frozen dataclass, dict and tuple
# lookups, a fixed-point iteration and a list-based RC step -- because
# host slowdowns hit such code harder than a tight arithmetic loop.  It
# is frozen here, independent of the program, so that no change to the
# program can change the yardstick.


@dataclass(frozen=True)
class _Decision:
    level: int
    cores: int
    cap: float | None


class _Client:
    __slots__ = ("rate", "share")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.share = 0.25


_LADDER = (
    (80.0, 4, None), (85.0, 3, 6.4e9), (90.0, 2, 3.2e9),
    (95.0, 1, 1.6e9), (1e9, 0, 0.0),
)


def _decide(temp: float, memo: dict) -> _Decision:
    for level, (threshold, cores, cap) in enumerate(_LADDER):
        if temp < threshold:
            decision = memo.get((cores, cap))
            if decision is None:
                decision = memo[(cores, cap)] = _Decision(level, cores, cap)
            return decision
    raise ValueError(temp)


def _share(clients: list, capacity: float) -> float:
    total = sum(c.rate for c in clients)
    for _ in range(6):
        weights = [c.rate * (1.0 - math.exp(-c.share * 3.0)) for c in clients]
        norm = sum(weights) or 1.0
        for client, weight in zip(clients, weights):
            client.share = 0.5 * client.share + 0.5 * weight / norm
    return total * capacity * sum(c.share * c.share for c in clients)


def _rc_step(temps: list, power: list, dt: float) -> list:
    out = []
    prev = 45.0
    for i, t in enumerate(temps):
        nxt = temps[i + 1] if i + 1 < len(temps) else 40.0
        flow = (prev - t) * 0.3 + (nxt - t) * 0.2 + power[i % len(power)] * 0.01
        out.append(t + flow * dt)
        prev = t
    return out


def probe_kernel(windows: int = PROBE_WINDOWS) -> float:
    """The fixed reference work: ``windows`` steps of a toy DTM loop."""
    memo: dict = {}
    clients = [_Client(1.0 + i * 0.5) for i in range(4)]
    temps = [50.0 + i for i in range(12)]
    progress = {slot: 0.0 for slot in range(4)}
    acc = 0.0
    for _ in range(windows):
        decision = _decide(max(temps), memo)
        demand = _share(clients[: max(1, decision.cores)], 4.0)
        power = [demand * 0.1 + slot for slot in range(decision.cores or 1)]
        temps = _rc_step(temps, power, 0.01)
        for slot in sorted(progress, key=progress.__getitem__):
            progress[slot] += demand * (slot + 1)
        acc += sum(temps) / len(temps)
    return acc


class Timed:
    """One timed operation: raw host seconds and normalized seconds."""

    __slots__ = ("raw_s", "norm_s", "ref_s")

    def __init__(self, raw_s: float, norm_s: float, ref_s: float) -> None:
        self.raw_s = raw_s
        self.norm_s = norm_s
        self.ref_s = ref_s


class ProbeClock:
    """Interleaves the probe with timed work via an interval timer."""

    def __init__(self, period_s: float = 0.010) -> None:
        self.period_s = period_s
        self.probes: list[float] = []
        #: Wall seconds spent inside probe handlers (subtracted from ops).
        self.probe_total_s = 0.0
        self._running = False
        self._last_probe = 0.0

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        probe_kernel()
        self.probes.append(time.perf_counter() - started)
        self._last_probe = time.perf_counter()
        self.probe_total_s += self._last_probe - started

    def probe_if_due(self) -> None:
        """Run one probe now if a period has passed since the last one.

        For loops of operations that must not be interrupted (an HTTP
        client whose reply would wait behind a probe): pause the timer
        around the loop and call this between operations.
        """
        if time.perf_counter() - self._last_probe >= self.period_s:
            self._probe(None, None)

    def start(self) -> None:
        if self._running:
            return
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def paused(self) -> "_Paused":
        """Context manager that stops the timer (e.g. around fork/exec)."""
        return _Paused(self)

    def mark(self) -> tuple[float, float, int]:
        """An opaque start mark for :meth:`since`."""
        return (time.perf_counter(), self.probe_total_s, len(self.probes))

    def since(self, mark: tuple[float, float, int]) -> Timed:
        """The operation that started at ``mark`` and ends now."""
        end = time.perf_counter()
        started, probe_before, first = mark
        raw = (end - started) - (self.probe_total_s - probe_before)
        inside = self.probes[first:]
        if not self.probes:
            self._probe(None, None)
        refs = inside if len(inside) >= MIN_PROBES else self.probes[-RECENT_PROBES:]
        ref = sum(refs) / len(refs)
        raw = max(raw, 0.0)
        return Timed(raw, raw * REF_NOMINAL_S / ref, ref)


class _Paused:
    def __init__(self, clock: ProbeClock) -> None:
        self._clock = clock
        self._was_running = False

    def __enter__(self) -> None:
        self._was_running = self._clock._running
        if self._was_running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def __exit__(self, *exc) -> None:
        if self._was_running:
            signal.setitimer(
                signal.ITIMER_REAL, self._clock.period_s, self._clock.period_s
            )


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1), linear between order statistics."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values)
