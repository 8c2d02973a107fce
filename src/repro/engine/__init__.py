"""The unified stepping engine (see :mod:`repro.engine.stepping`).

Layer stack::

    repro.engine          <- this package: cadence, checkpoints, observers
    repro.core.simulator  <- Chapter4Strategy / TwoLevelSimulator
    repro.testbed.runner  <- ServerStrategy / HomogeneousStrategy
    repro.campaign        <- cached, deduplicated cells over the engine
    repro.cluster         <- serial or process-pool execution of cells
    repro.jobs            <- time-sliced, preemptible job cells
    repro.api / cli       <- envelopes, /v1/progress, --checkpoint-dir
"""

from repro.engine.observers import (
    CheckpointObserver,
    Observer,
    ProgressObserver,
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
    "SteppingEngine",
    "TraceRecorder",
    "WindowOutcome",
]
