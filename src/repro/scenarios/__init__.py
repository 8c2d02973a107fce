"""The named scenario library: each entry is a run spec with a name.

::

    from dataclasses import replace
    from repro.campaign import run
    from repro.scenarios import get_scenario

    result = run(replace(get_scenario("hot-ambient").spec, copies=1))

runs a named scenario through the campaign engine (cached,
deduplicated, parallelizable).  See :mod:`repro.scenarios.library`.
"""

from __future__ import annotations

from repro.scenarios.library import (
    SCENARIO_LIBRARY,
    SCENARIO_NAMES,
    LibraryEntry,
    get_scenario,
    iter_scenarios,
)

__all__ = [
    "SCENARIO_LIBRARY",
    "SCENARIO_NAMES",
    "LibraryEntry",
    "get_scenario",
    "iter_scenarios",
]
