"""Workload mixes (Table 4.2 and Table 5.2).

Eight four-program mixes drawn from the twelve memory-intensive SPEC
CPU2000 selections, plus the two SPEC CPU2006 mixes used in Chapter 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.codec import Text
from repro.errors import WorkloadError
from repro.workloads.profiles import AppProfile, get_app


@dataclass(frozen=True)
class WorkloadMix:
    """A named multiprogramming mix of applications."""

    name: str
    app_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.app_names:
            raise WorkloadError(f"mix {self.name} has no applications")

    @property
    def apps(self) -> list[AppProfile]:
        """The application profiles of this mix, in slot order."""
        return [get_app(name) for name in self.app_names]


#: Table 4.2 / Table 5.2 — the paper's workload mixes.
WORKLOAD_MIXES: dict[str, WorkloadMix] = {
    mix.name: mix
    for mix in (
        WorkloadMix("W1", ("swim", "mgrid", "applu", "galgel")),
        WorkloadMix("W2", ("art", "equake", "lucas", "fma3d")),
        WorkloadMix("W3", ("swim", "applu", "art", "lucas")),
        WorkloadMix("W4", ("mgrid", "galgel", "equake", "fma3d")),
        WorkloadMix("W5", ("swim", "art", "wupwise", "vpr")),
        WorkloadMix("W6", ("mgrid", "equake", "mcf", "apsi")),
        WorkloadMix("W7", ("applu", "lucas", "wupwise", "mcf")),
        WorkloadMix("W8", ("galgel", "fma3d", "vpr", "apsi")),
        WorkloadMix("W11", ("milc", "leslie3d", "soplex", "GemsFDTD")),
        WorkloadMix("W12", ("libquantum", "lbm", "omnetpp", "wrf")),
    )
}

#: The domain of a mix-name field: one of the tabulated mixes.
MIX = Text(tuple(WORKLOAD_MIXES), noun="workload mix")

#: The Chapter 4 (simulation) mixes, in presentation order.
SIMULATION_MIXES = ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")

#: The Chapter 5 SPEC CPU2006 mixes.
CPU2006_MIXES = ("W11", "W12")


def get_mix(name: str) -> WorkloadMix:
    """Look up a workload mix by name.

    Raises:
        WorkloadError: if the mix does not exist.
    """
    try:
        return WORKLOAD_MIXES[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_MIXES))
        raise WorkloadError(f"unknown workload mix {name!r}; known: {known}") from None
