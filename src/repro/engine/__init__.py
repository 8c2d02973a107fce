"""The unified stepping engine (see :mod:`repro.engine.stepping`).

Layer stack::

    repro.engine          <- this package: cadence, checkpoints, observers
    repro.core.simulator  <- Chapter4Strategy / TwoLevelSimulator
    repro.testbed.runner  <- ServerStrategy / HomogeneousStrategy
    repro.campaign        <- cached, deduplicated cells over the engine
    repro.cluster         <- time-sliced, preemptible distributed cells
    repro.api / cli       <- envelopes, /v1/progress, --checkpoint-dir
"""

from repro.engine.observers import (
    CheckpointObserver,
    Observer,
    ProgressObserver,
    SteadyStateGuard,
    TraceRecorder,
)
from repro.engine.progress import PROGRESS, ProgressBroker
from repro.engine.state import (
    ENGINE_STATE_VERSION,
    CheckpointFile,
    EngineState,
    EngineStateSerializer,
)
from repro.engine.stepping import RunStrategy, SteppingEngine, WindowOutcome

__all__ = [
    "ENGINE_STATE_VERSION",
    "PROGRESS",
    "CheckpointFile",
    "CheckpointObserver",
    "EngineState",
    "EngineStateSerializer",
    "Observer",
    "ProgressBroker",
    "ProgressObserver",
    "RunStrategy",
    "SteadyStateGuard",
    "SteppingEngine",
    "TraceRecorder",
    "WindowOutcome",
]
