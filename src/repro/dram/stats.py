"""Statistics collection for the cycle-level memory system."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import to_gbps


@dataclass
class ChannelStats:
    """Aggregate statistics of one channel over a simulated run."""

    read_requests: int = 0
    write_requests: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    activations: int = 0
    latencies_s: list[float] = field(default_factory=list)
    last_completion_s: float = 0.0

    @property
    def total_requests(self) -> int:
        """Reads plus writes."""
        return self.read_requests + self.write_requests

    @property
    def total_bytes(self) -> int:
        """Read plus write bytes."""
        return self.read_bytes + self.write_bytes

    def record(
        self,
        is_write: bool,
        bytes_moved: int,
        latency_s: float,
        completion_s: float,
    ) -> None:
        """Record one completed request."""
        if is_write:
            self.write_requests += 1
            self.write_bytes += bytes_moved
        else:
            self.read_requests += 1
            self.read_bytes += bytes_moved
        self.activations += 1
        self.latencies_s.append(latency_s)
        self.last_completion_s = max(self.last_completion_s, completion_s)

    def average_latency_s(self) -> float:
        """Mean request latency (0 when nothing completed)."""
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    def percentile_latency_s(self, fraction: float) -> float:
        """Latency percentile, fraction in [0, 1]."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def throughput_gbps(self) -> float:
        """Served throughput in GB/s up to the last completion."""
        if self.last_completion_s <= 0:
            return 0.0
        return to_gbps(self.total_bytes / self.last_completion_s)

    def merge(self, other: "ChannelStats") -> "ChannelStats":
        """Combine two stats objects (for multi-channel totals)."""
        merged = ChannelStats(
            read_requests=self.read_requests + other.read_requests,
            write_requests=self.write_requests + other.write_requests,
            read_bytes=self.read_bytes + other.read_bytes,
            write_bytes=self.write_bytes + other.write_bytes,
            activations=self.activations + other.activations,
            latencies_s=self.latencies_s + other.latencies_s,
            last_completion_s=max(self.last_completion_s, other.last_completion_s),
        )
        return merged
