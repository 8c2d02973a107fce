"""FBDIMM channel links: southbound commands/writes, northbound reads.

The two unidirectional links operate independently (§3.2).  Per frame
period the southbound link carries three commands, or one command plus
16 B of write data; the northbound link carries 32 B of read data.  We
model each link as a sequence of frame slots: a user books the earliest
free slot at or after a requested time.  This captures link serialization
(the real bandwidth ceiling) without simulating individual bits.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params.dram_timing import DDR2Timing, FBDIMMChannelParams
from repro.units import ns_to_s


class FrameLink:
    """One unidirectional frame link with single-slot occupancy."""

    def __init__(self, frame_period_s: float) -> None:
        if frame_period_s <= 0:
            raise ConfigurationError("frame period must be positive")
        self._frame_period_s = frame_period_s
        self._next_free_s = 0.0
        self._frames_sent = 0

    @property
    def frame_period_s(self) -> float:
        """Duration of one frame slot, seconds."""
        return self._frame_period_s

    @property
    def frames_sent(self) -> int:
        """Number of frames booked so far."""
        return self._frames_sent

    @property
    def next_free_s(self) -> float:
        """When the link can accept another frame."""
        return self._next_free_s

    def book(self, earliest_s: float, frames: int = 1) -> float:
        """Reserve ``frames`` consecutive slots at or after ``earliest_s``.

        Returns the start time of the first reserved slot.
        """
        if frames < 1:
            raise ConfigurationError("must book at least one frame")
        start = max(earliest_s, self._next_free_s)
        self._next_free_s = start + frames * self._frame_period_s
        self._frames_sent += frames
        return start

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of elapsed time the link spent carrying frames."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self._frames_sent * self._frame_period_s / elapsed_s)

    def reset(self) -> None:
        """Clear bookings (per measurement window)."""
        self._next_free_s = 0.0
        self._frames_sent = 0


class FBDIMMChannel:
    """The paired southbound/northbound links of one FBDIMM channel."""

    def __init__(self, timing: DDR2Timing, params: FBDIMMChannelParams) -> None:
        self._timing = timing
        self._params = params
        period_s = ns_to_s(params.frame_period_ns(timing))
        self.southbound = FrameLink(period_s)
        self.northbound = FrameLink(period_s)

    def send_command(self, earliest_s: float) -> float:
        """Book a southbound frame carrying the ACT + CAS command pair.

        Close-page auto-precharge needs two commands per request; a frame
        carries up to three, so one frame suffices.  Returns departure time.
        """
        return self.southbound.book(earliest_s, frames=1)

    def send_write(self, earliest_s: float, payload_bytes: int) -> float:
        """Book southbound frames for a write: commands ride with the data.

        Each frame moves ``southbound_write_bytes`` (16 B) alongside one
        command slot, so a 32 B write needs two frames.  Returns the start
        of the first frame.
        """
        if payload_bytes <= 0:
            raise ConfigurationError("write payload must be positive")
        per_frame = self._params.southbound_write_bytes
        frames = -(-payload_bytes // per_frame)
        return self.southbound.book(earliest_s, frames=frames)

    def return_read(self, earliest_s: float, payload_bytes: int) -> float:
        """Book northbound frames for read data; returns last-frame end time."""
        if payload_bytes <= 0:
            raise ConfigurationError("read payload must be positive")
        per_frame = self._params.northbound_read_bytes
        frames = -(-payload_bytes // per_frame)
        start = self.northbound.book(earliest_s, frames=frames)
        return start + frames * self.northbound.frame_period_s

    def reset(self) -> None:
        """Clear both links."""
        self.southbound.reset()
        self.northbound.reset()
