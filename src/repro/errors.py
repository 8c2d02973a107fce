"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulation, model or request was configured outside its domain.

    Raised when an input dataclass (a run spec, ``SimulationConfig``, a
    :mod:`repro.params` table, an API request, a scenario) is built with
    a value outside its field's declared domain
    (:func:`repro.engine.codec.check_domain`, naming the field) or
    breaking a rule across fields.  The HTTP service answers it with a
    JSON 400, the CLI with one ``error:`` line (exit 2).
    """


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
    any field the codec (:mod:`repro.engine.codec`) refuses, naming its
    dotted path: job-store records and the trace columns of cached
    results included, through the same kinds that declare the input
    domains.  A cached payload refused this way is a cache miss and is
    recomputed.  A *torn* checkpoint file can never cause this:
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


class Unavailable(ReproError):
    """A request the service cannot take now but may take later (a job
    whose record cannot be written): the HTTP service answers a 503
    carrying ``reason`` and a ``Retry-After`` of ``retry_after_s``."""

    def __init__(self, message: str, reason: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s
