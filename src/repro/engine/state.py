"""Serializable engine snapshots and atomic checkpoint files.

An :class:`EngineState` is everything a
:class:`~repro.engine.stepping.SteppingEngine` needs to resume a run at
an exact DTM-window boundary: the clock, the shared accumulators, the
thermal-chain temperatures, the strategy's own state (scheduler queue,
policy hysteresis/PID integrals, rotation counters) and each observer's
state (the trace recorded so far, trace-sampling phase).

Versioning follows the ResultEnvelope rules
(:mod:`repro.api.envelope`): ``version`` is ``"<major>.<minor>"``;
minor bumps only add fields and old snapshots keep loading, major
bumps may rename or remove fields and :meth:`EngineState.from_dict`
rejects a foreign major outright.  Snapshots are plain JSON — floats
round-trip bit-exactly through Python's shortest-repr serialization,
which is what makes a restored run *bit-identical* to an uninterrupted
one rather than merely close.

Every section is written and checked by the one checkpoint codec
(:mod:`repro.engine.codec`) from the fields each component declares.
To add a piece of run state, declare it in the owning component's
``STATE_FIELDS`` table (``Field(key, attribute, kind, default)``); the
default is what a snapshot written before the field existed decodes
as, which makes the addition a minor-version change.  A rule across
fields (a count bounded by another, a list as long as the batch has
slots) goes in the component's ``_state_hook``, which receives values
whose types and ranges are already checked.  A restore decodes the
whole snapshot before it assigns anything, so a refused snapshot
leaves the engine as it was.

:class:`CheckpointFile` stores one snapshot on disk, as the
:func:`encode_checkpoint` bytes of the same ``to_dict()`` a job keeps in
its record's ``cell_states``, through
:func:`publish_atomic`, the one write-then-rename routine the result
store (:class:`~repro.campaign.stores.JsonDirStore`) and the job
records (:class:`~repro.jobs.store.JobStore`) publish with too: the
JSON is serialized *before* the temp file is opened, published with
:func:`os.replace`, and the temp sibling is unlinked on any failure —
an interrupted or abandoned run can leave behind a valid previous
checkpoint or nothing, never a torn or partial file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.engine.codec import (
    Count,
    Float,
    ListOf,
    Object,
    Text,
    Version,
    decode_record,
    domain,
    state_dict,
)
from repro.errors import CheckpointError

#: Engine snapshot schema version.  Bump the minor for additive
#: changes, the major for breaking ones (same rules as the API's
#: ``SCHEMA_VERSION``; see the module docstring).
ENGINE_STATE_VERSION = "1.0"


@dataclass(frozen=True, kw_only=True)
class EngineState:
    """One engine snapshot, taken at a DTM-window boundary.

    :meth:`from_dict` checks the fields declared here;
    :meth:`SteppingEngine.restore <repro.engine.stepping.SteppingEngine.restore>`
    checks the thermal, strategy and observer sections against the
    components they restore.
    """

    version: str = domain(
        Version(ENGINE_STATE_VERSION), ENGINE_STATE_VERSION, required=True
    )
    #: Strategy kind the snapshot belongs to (``ch4``, ``ch5``, ...).
    #: Restoring into an engine built for a different kind fails.
    strategy: str = domain(Text())
    #: Windows completed so far.
    windows: int = domain(Count())
    #: Simulated seconds elapsed.
    now_s: float = domain(Float())
    #: The engine-owned accumulators (traffic, energies, peaks, ...).
    accumulators: dict[str, float] = domain(Object(Float()))
    #: Thermal-chain temperatures (the thermal kernel's fields).
    thermal: dict[str, Any] = domain(Object())
    #: Strategy-owned state (scheduler, policy, rotation counters).
    strategy_state: dict[str, Any] = domain(Object())
    #: Per-observer state, in engine attach order.
    observers: list[dict] = domain(ListOf(Object()), list)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return state_dict(self)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "EngineState":
        """Rebuild a snapshot, its version (a foreign major is refused)
        checked first; every defect raises :class:`CheckpointError`."""
        return decode_record(cls, raw, "engine state")


def encode_checkpoint(state: EngineState) -> bytes:
    """The bytes a checkpoint file holds: the canonical JSON of
    ``state.to_dict()``, the form a job keeps in its record's
    ``cell_states``, and a newline."""
    return (json.dumps(state.to_dict(), sort_keys=True) + "\n").encode()


#: Process-wide suffix of temp names (``next`` on an
#: ``itertools.count`` is atomic in CPython).
_TMP_COUNTER = itertools.count()


def publish_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temp sibling, then publish it as ``path``.

    Readers of ``path`` see the previous file or the new one, never a
    torn write.  The sibling is ``<path>.tmp.<pid>.<tid>.<n>``, with
    ``n`` from one process-wide counter, so no two writers — processes,
    threads of one process, or two writes of one thread — share one.
    A missing parent directory is created on the first failed open
    rather than probed per write.  Any failure, a ``KeyboardInterrupt``
    included, unlinks the sibling and re-raises; the caller picks the
    error policy.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_TMP_COUNTER)}"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CheckpointFile:
    """One on-disk checkpoint slot with atomic write-then-rename.

    :func:`publish_atomic` writes through raw ``os.open``/``os.write``
    and creates the parent directory on demand, which keeps the
    every-window cadence cheap.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._path_str = str(self.path)

    def exists(self) -> bool:
        """Whether a published checkpoint is present."""
        return self.path.is_file()

    def write(self, state: EngineState) -> None:
        """Atomically publish ``state``, replacing any prior snapshot.

        The document (:func:`encode_checkpoint`) is serialized before
        the temp file opens, so an unserializable state aborts before
        touching disk; any I/O failure mid-write unlinks the temp
        sibling, leaving either the previous valid checkpoint or
        nothing.
        """
        publish_atomic(self._path_str, encode_checkpoint(state))

    def load(self) -> EngineState:
        """Read and validate the published snapshot."""
        try:
            raw = json.loads(self.path.read_text())
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from None
        except ValueError as error:
            raise CheckpointError(
                f"checkpoint {self.path} is not valid JSON: {error}"
            ) from None
        return EngineState.from_dict(raw)

    def remove(self) -> None:
        """Delete the checkpoint and any stale temp siblings (idempotent)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass
        try:
            for stale in self.path.parent.glob(f"{self.path.name}.tmp.*"):
                stale.unlink(missing_ok=True)
        except OSError:
            pass
