"""An LRU set-associative cache simulator.

Models the shared L2 of the simulated platform (4 MB, 8-way, 64 B lines,
Table 4.1) and the Xeon 5160 L2 (4 MB, 16-way) of Chapter 5.  Used
directly in tests and to *measure* miss-ratio curves that validate the
parametric curves the analytic model uses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.engine.codec import Count, check_domain, domain
from repro.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(eq=False)
class SetAssociativeCache:
    """A classic LRU set-associative cache with per-set recency order."""

    #: Total capacity, bytes: a multiple of ``ways * line_bytes``.
    capacity_bytes: int = domain(Count(minimum=1))
    #: Associativity.
    ways: int = domain(Count(minimum=1))
    #: Line size, bytes.
    line_bytes: int = domain(Count(minimum=1), 64)

    def __post_init__(self) -> None:
        check_domain(self)
        if self.capacity_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError(
                "capacity must be a multiple of ways * line size"
            )
        self._sets = self.capacity_bytes // (self.ways * self.line_bytes)
        if not _is_power_of_two(self._sets):
            raise ConfigurationError("number of sets must be a power of two")
        # Each set is an OrderedDict of tags; order = recency (last entry
        # is most recently used).
        self._lines: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self._sets)
        ]
        self.hits = 0
        self.misses = 0

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self._sets

    def access(self, address: int) -> bool:
        """Access one address; returns True on hit.

        A miss fills the line, evicting the LRU entry of the set.
        """
        line = address // self.line_bytes
        set_index = line % self._sets
        tag = line // self._sets
        entries = self._lines[set_index]
        if tag in entries:
            self.hits += 1
            entries.move_to_end(tag)
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[tag] = None
        return False

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0 when no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(entries) for entries in self._lines)

    def reset_stats(self) -> None:
        """Zero counters without flushing contents."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate every line and zero counters."""
        for entries in self._lines:
            entries.clear()
        self.reset_stats()
