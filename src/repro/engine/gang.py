"""Compatibility shim: campaign cells always run solo now.

Lockstep gangs stepped many cells through one grid kernel.  Once the
solo window stopped building per-window objects and gained a flat
4-DIMM kernel, solo execution outran the gang on every measured width,
and the gang path was deleted.

:func:`plan_gangs` remains only because the frozen benchmark harness
(``perfbench/sims.py``) imports it; it plans no gang and hands every
cell back as solo work.  The next benchmark change retires it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class GangPlan:
    """The output of :func:`plan_gangs`: never any gang, all cells solo."""

    gangs: tuple[Any, ...]
    #: Every planned ``(cache key, spec)`` cell, in input order.
    solo: tuple[tuple[str, Any], ...]


def plan_gangs(
    cells: Sequence[tuple[str, Any]], *, batch_cells: int = 16
) -> GangPlan:
    """Return every ``(cache key, spec)`` cell as solo work, in order.

    ``batch_cells`` is accepted and ignored, for the benchmark caller.
    """
    return GangPlan(gangs=(), solo=tuple(cells))
