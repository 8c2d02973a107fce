"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


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
    different strategy kind, checkpoint files that fail to decode, and
    any field the checkpoint codec (:mod:`repro.engine.codec`) refuses,
    job-store records included.  A *torn* file can never cause this:
    checkpoints are published with the same write-then-rename
    discipline as the result stores.
    """


class NotFoundError(ReproError):
    """A request named a job, trace or route that does not exist."""


class ConflictError(ReproError):
    """A request its target cannot answer yet (a job's result before the
    job completed); ``detail`` holds fields such as the job's status."""

    def __init__(self, message: str, **detail) -> None:
        super().__init__(message)
        self.detail = detail
