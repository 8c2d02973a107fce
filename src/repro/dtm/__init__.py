"""Dynamic thermal management policies (§4.2, §5.2).

Every policy maps a thermal reading to a
:class:`~repro.dtm.base.ControlDecision` once per DTM interval.

- :class:`repro.dtm.ts.DTMTS` — thermal shutdown with TDP/TRP hysteresis.
- :mod:`repro.dtm.ladder` — the table-driven schemes, one
  :class:`~repro.dtm.ladder.LadderPolicy` each: bandwidth throttling
  (:class:`DTMBW`) and the paper's proposals, adaptive core gating
  (:class:`DTMACG`), coordinated DVFS (:class:`DTMCDVFS`) and both
  combined (:class:`DTMCOMB`, Chapter 5).
  :func:`~repro.dtm.ladder.ladder_decision` is the one map from an
  emergency-table rung to a decision.
- :class:`repro.dtm.pid_policies.PIDPolicy` — PID-driven variants that
  pick rungs of the same ladders, driven by
  :class:`repro.dtm.pid.PIDController` (Eq. 4.1 with integral-enable
  threshold and saturation anti-windup).

Each policy builds its decisions in its constructor, so ``decide``
returns a shared frozen decision and allocates nothing.
"""

from repro.dtm.base import ControlDecision, DTMPolicy, ThermalReading
from repro.dtm.levels import LevelTracker
from repro.dtm.ts import DTMTS
from repro.dtm.ladder import DTMACG, DTMBW, DTMCDVFS, DTMCOMB, LadderPolicy
from repro.dtm.pid import PIDController, PIDGains
from repro.dtm.pid_policies import PIDPolicy

__all__ = [
    "ControlDecision",
    "DTMPolicy",
    "ThermalReading",
    "LevelTracker",
    "DTMTS",
    "LadderPolicy",
    "DTMBW",
    "DTMACG",
    "DTMCDVFS",
    "DTMCOMB",
    "PIDController",
    "PIDGains",
    "PIDPolicy",
]
