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

:class:`CheckpointFile` stores one snapshot on disk with the same
write-then-rename discipline as
:class:`~repro.campaign.stores.JsonDirStore`: the JSON is serialized
*before* the temp file is opened, published with :func:`os.replace`,
and the temp sibling is unlinked on any failure — an interrupted or
abandoned run can leave behind a valid previous checkpoint or nothing,
never a torn or partial file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import CheckpointError, checkpoint_float

#: Engine snapshot schema version.  Bump the minor for additive
#: changes, the major for breaking ones (same rules as the API's
#: ``SCHEMA_VERSION``; see the module docstring).
ENGINE_STATE_VERSION = "1.0"


def _state_major(version: str) -> int:
    major, _, minor = str(version).partition(".")
    if not major.isdigit() or not minor.isdigit():
        raise CheckpointError(
            f"malformed engine-state version {version!r} "
            f"(expected '<major>.<minor>')"
        )
    return int(major)


@dataclass(frozen=True)
class EngineState:
    """One engine snapshot, taken at a DTM-window boundary."""

    #: Strategy kind the snapshot belongs to (``ch4``, ``ch5``, ...).
    #: Restoring into an engine built for a different kind fails.
    strategy: str
    #: Windows completed so far.
    windows: int
    #: Simulated seconds elapsed.
    now_s: float
    #: The engine-owned accumulators (traffic, energies, peaks, ...).
    accumulators: dict[str, float]
    #: Thermal-chain temperatures (``MemSpot.thermal_state()`` shape).
    thermal: dict[str, Any]
    #: Strategy-owned state (scheduler, policy, rotation counters).
    strategy_state: dict[str, Any]
    #: Per-observer state, in engine attach order.
    observers: list[dict] = field(default_factory=list)
    version: str = ENGINE_STATE_VERSION

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "version": self.version,
            "strategy": self.strategy,
            "windows": self.windows,
            "now_s": self.now_s,
            "accumulators": dict(self.accumulators),
            "thermal": dict(self.thermal),
            "strategy_state": dict(self.strategy_state),
            "observers": [dict(state) for state in self.observers],
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "EngineState":
        """Rebuild a snapshot, rejecting incompatible majors.

        Every defect raises :class:`CheckpointError`: a missing key, a
        section that is not an object, a window count that is not a
        non-negative integer, or a clock or accumulator that is not a
        finite number.  The thermal and strategy sections are checked
        by :meth:`SteppingEngine.restore`, which knows their shape.
        """
        if not isinstance(raw, Mapping):
            raise CheckpointError(
                f"engine state must be a JSON object, got {type(raw).__name__}"
            )
        version = str(raw.get("version", ""))
        if _state_major(version) != _state_major(ENGINE_STATE_VERSION):
            raise CheckpointError(
                f"incompatible engine-state version {version!r}: this "
                f"engine speaks major {_state_major(ENGINE_STATE_VERSION)} "
                f"({ENGINE_STATE_VERSION})"
            )
        missing = [
            name
            for name in (
                "strategy", "windows", "now_s", "accumulators", "thermal",
                "strategy_state",
            )
            if name not in raw
        ]
        if missing:
            raise CheckpointError(f"malformed engine state: missing {missing}")
        windows = raw["windows"]
        if isinstance(windows, bool) or not isinstance(windows, int) or windows < 0:
            raise CheckpointError(
                f"malformed engine state: windows must be a non-negative "
                f"integer, got {windows!r}"
            )
        sections = {}
        for name in ("accumulators", "thermal", "strategy_state"):
            if not isinstance(raw[name], Mapping):
                raise CheckpointError(
                    f"malformed engine state: {name} must be an object, "
                    f"got {raw[name]!r}"
                )
            sections[name] = dict(raw[name])
        observers = raw.get("observers", [])
        if not isinstance(observers, list) or not all(
            isinstance(state, Mapping) for state in observers
        ):
            raise CheckpointError(
                "malformed engine state: observers must be a list of objects"
            )
        return cls(
            strategy=str(raw["strategy"]),
            windows=windows,
            now_s=checkpoint_float(raw["now_s"], "engine state now_s"),
            accumulators={
                name: checkpoint_float(
                    value, f"engine state accumulators.{name}"
                )
                for name, value in sections["accumulators"].items()
            },
            thermal=sections["thermal"],
            strategy_state=sections["strategy_state"],
            observers=[dict(state) for state in observers],
            version=version,
        )


class EngineStateSerializer:
    """Incremental :class:`EngineState` -> JSON text, with section reuse.

    Serializing a snapshot from scratch re-dumps every section every
    time, but between consecutive checkpoints of one run most sections
    are byte-identical: the strategy/version header never changes, and
    the observer states — which embed the *entire* trace recorded so
    far, by far the largest section on trace-recording cells — only
    change when the trace grows (once per trace-resolution interval,
    not per window).  This serializer caches each section's serialized
    text and reuses it while the section's value compares equal, so an
    every-window checkpoint cadence re-serializes only the small
    mutable state (clock, accumulators, temperatures).

    The output is byte-identical to
    ``json.dumps(state.to_dict(), sort_keys=True)`` (a test pins this),
    so cached and uncached writers publish interchangeable files.  One
    serializer serves one run's checkpoint stream; sharing it across
    unrelated runs is safe but defeats the cache.
    """

    def __init__(self) -> None:
        self._sections: dict[str, tuple[Any, str]] = {}

    def _section(self, name: str, value: Any) -> str:
        cached = self._sections.get(name)
        if cached is not None and cached[0] == value:
            return cached[1]
        text = json.dumps(value, sort_keys=True)
        self._sections[name] = (value, text)
        return text

    def serialize(self, state: EngineState) -> str:
        """The snapshot's canonical JSON document."""
        # Top-level keys in sorted order, matching json.dumps(...,
        # sort_keys=True) byte for byte.
        return (
            '{"accumulators": '
            + self._section("accumulators", state.accumulators)
            + ', "now_s": '
            + json.dumps(state.now_s)
            + ', "observers": '
            + self._section("observers", state.observers)
            + ', "strategy": '
            + self._section("strategy", state.strategy)
            + ', "strategy_state": '
            + self._section("strategy_state", state.strategy_state)
            + ', "thermal": '
            + self._section("thermal", state.thermal)
            + ', "version": '
            + self._section("version", state.version)
            + ', "windows": '
            + json.dumps(state.windows)
            + "}"
        )


class CheckpointFile:
    """One on-disk checkpoint slot with atomic write-then-rename.

    The write path is tuned for the worst-case every-window cadence:
    the temp-sibling path is computed once per process (not per write),
    the file I/O goes through raw ``os.open``/``os.write`` instead of
    the pathlib convenience wrappers, and the parent directory is
    created on demand (first write) rather than probed per write.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._path_str = str(self.path)
        self._tmp_pid = -1
        self._tmp = ""

    def _tmp_path(self) -> str:
        # Keyed on the pid so a forked worker inheriting this object
        # writes its own sibling instead of racing the parent's.
        pid = os.getpid()
        if pid != self._tmp_pid:
            self._tmp_pid = pid
            self._tmp = f"{self._path_str}.tmp.{pid}"
        return self._tmp

    def exists(self) -> bool:
        """Whether a published checkpoint is present."""
        return self.path.is_file()

    def write(
        self,
        state: EngineState,
        serializer: EngineStateSerializer | None = None,
    ) -> None:
        """Atomically publish ``state``, replacing any prior snapshot.

        The document is serialized before the temp file opens, so an
        unserializable state aborts before touching disk; any I/O
        failure mid-write unlinks the temp sibling, leaving either the
        previous valid checkpoint or nothing.  A ``serializer`` lets
        repeat writers (:class:`~repro.engine.observers.CheckpointObserver`)
        reuse unchanged sections' serialized text between snapshots.
        """
        if serializer is None:
            text = json.dumps(state.to_dict(), sort_keys=True)
        else:
            text = serializer.serialize(state)
        data = (text + "\n").encode()
        tmp = self._tmp_path()
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            try:
                fd = os.open(tmp, flags, 0o666)
            except FileNotFoundError:
                # First write (or someone removed the directory
                # mid-run): create the parent and retry.  Probing with
                # mkdir on *every* write would cost a syscall per
                # checkpoint on the worst-case every-window cadence.
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(tmp, flags, 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, self._path_str)
        except BaseException:
            # KeyboardInterrupt included: an interrupted run must not
            # leave a partial sibling behind.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

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
