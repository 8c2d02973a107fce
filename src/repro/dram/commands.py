"""DRAM commands and memory requests.

With the close-page / auto-precharge policy used throughout the paper,
each memory request expands to exactly three DRAM operations — row
activation (RAS), column access (CAS) and precharge (PRE) — and the
precharge is implicit in the CAS-with-auto-precharge command (§3.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class RequestKind(enum.Enum):
    """Memory request direction."""

    READ = "read"
    WRITE = "write"


_request_ids = itertools.count()


@dataclass
class MemoryRequest:
    """A memory-controller request for one cache-line transfer.

    A 64 B line is striped over two physical channels, so one request on
    one channel moves 32 B (a burst of four on a x8 rank, §3.3).
    """

    kind: RequestKind
    address: int
    arrival_s: float
    bytes: int = 32
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError("address must be non-negative")
        if self.arrival_s < 0:
            raise ConfigurationError("arrival time must be non-negative")
        if self.bytes <= 0:
            raise ConfigurationError("request size must be positive")

    @property
    def is_write(self) -> bool:
        """Whether this request carries write data."""
        return self.kind is RequestKind.WRITE
