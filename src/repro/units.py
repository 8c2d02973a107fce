"""Unit helpers and conversions used throughout the library.

The paper mixes several unit systems: memory throughput in GB/s, DRAM
timing in nanoseconds, channel speed in mega-transfers per second (MT/s),
temperatures in degrees Celsius, and power in watts.  Centralizing the
conversion constants here keeps the model code free of magic numbers and
makes the provenance of each constant auditable.

All internal simulator state uses SI base units (bytes, seconds, watts,
degrees Celsius) unless a name says otherwise.
"""

from __future__ import annotations

#: Bytes in one binary kilobyte / megabyte / gigabyte.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: The paper quotes bandwidth in decimal GB/s (e.g. 6.4 GB/s for DDR2-800).
GB = 1_000_000_000

#: Seconds per nanosecond / microsecond / millisecond.
NS = 1e-9
US = 1e-6
MS = 1e-3

#: Cache block size used throughout the paper (Table 4.1: 64 B lines).
CACHE_LINE_BYTES = 64


def gbps(value: float) -> float:
    """Convert a throughput expressed in GB/s to bytes/second."""
    return value * GB


def to_gbps(bytes_per_second: float) -> float:
    """Convert a throughput in bytes/second to GB/s."""
    return bytes_per_second / GB


def ns_to_s(nanoseconds: float) -> float:
    """Convert nanoseconds to seconds."""
    return nanoseconds * NS
