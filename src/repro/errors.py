"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulation or model was configured with inconsistent parameters."""


class TimingViolationError(ReproError):
    """A DRAM command was issued in violation of a device timing constraint.

    The cycle-level FBDIMM simulator checks every command against the DDR2
    timing parameters (tRCD, tRP, tRAS, ...).  Scheduler bugs surface as
    this exception instead of silently corrupting statistics.
    """


class ProtocolError(ReproError):
    """An FBDIMM channel frame or AMB interaction broke protocol rules."""


class SchedulingError(ReproError):
    """The batch-job scheduler or OS emulation reached an invalid state."""


class ThermalModelError(ReproError):
    """A thermal model was asked to operate outside its valid domain."""


class WorkloadError(ReproError):
    """An unknown application or workload mix was requested."""


class SimulationError(ReproError):
    """A simulation run failed to make progress or exceeded its horizon."""


class CheckpointError(ReproError):
    """An engine checkpoint could not be captured, decoded, or restored.

    Raised for version-skewed snapshots, snapshots taken under a
    different strategy kind, and checkpoint files that fail to decode.
    A *torn* file can never cause this: checkpoints are published with
    the same write-then-rename discipline as the result stores.
    """


def checkpoint_float(value: object, where: str) -> float:
    """``value`` as a finite float, or :class:`CheckpointError` naming
    ``where``.  Booleans, strings, NaN and infinities are refused, so a
    hand-edited or corrupted snapshot fails before it is restored."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckpointError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise CheckpointError(f"{where} must be finite, got {value!r}")
    return value


class ClusterError(ReproError):
    """Distributed campaign execution failed (workers dead, cell rejected,
    or retries exhausted).

    Raised by the :mod:`repro.cluster` coordinator; transient worker
    failures are retried and blacklisted internally, so seeing this
    exception means the fleet as a whole could not complete the grid.
    """
