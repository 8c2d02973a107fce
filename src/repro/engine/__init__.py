"""The unified stepping engine (see :mod:`repro.engine.stepping`).

Layer stack::

    repro.engine          <- this package: cadence, checkpoints, observers
    repro.core.simulator  <- Chapter4Strategy / TwoLevelSimulator
    repro.testbed.runner  <- ServerStrategy / HomogeneousStrategy
    repro.campaign        <- cached, deduplicated cells over the engine
    repro.cluster         <- serial or process-pool execution of cells
    repro.jobs            <- time-sliced, preemptible job cells
    repro.api / cli       <- envelopes, job status, --checkpoint-dir
"""

from repro import lazy_exports

_EXPORTS = {
    "CheckpointFile": "state",
    "EngineState": "state",
    "Observer": "observers",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
