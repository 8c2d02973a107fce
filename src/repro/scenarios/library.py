"""The built-in scenario library.

Each entry is the run spec it names — a
:class:`~repro.analysis.specs.Chapter4Spec` or
:class:`~repro.analysis.specs.Chapter5Spec` whose ``scenario`` field is
the entry's name — plus a description and tags for ``scenarios list``.
Crossing an entry with another mix, policy or copy count is
``dataclasses.replace`` on its spec, which re-checks every field.  The
paper's figures cover the default platform under steady batch traffic;
these scenarios stress the axes the figures hold fixed — ambient
excursions, control-parameter corners, channel asymmetry, bursty
traffic, and server-side what-ifs.

Run one with ``python -m repro scenarios run <name>`` or sweep them with
``python -m repro campaign --grid scenarios``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.errors import ConfigurationError


class LibraryEntry(NamedTuple):
    """One named scenario: its run spec and how ``scenarios list`` shows it."""

    spec: Chapter4Spec | Chapter5Spec
    description: str
    #: Free-form labels for ``scenarios list`` filtering.
    tags: tuple[str, ...]


#: Every built-in scenario, in definition order.
SCENARIO_LIBRARY: tuple[LibraryEntry, ...] = (
    # -- ambient excursions ------------------------------------------------
    LibraryEntry(
        Chapter4Spec(
            scenario="hot-ambient", mix="W2", policy="ts", inlet_delta_c=8.0
        ),
        "machine-room cooling failure: inlet +8 degC under DTM-TS",
        ("ambient", "stress"),
    ),
    LibraryEntry(
        Chapter4Spec(
            scenario="cold-aisle", mix="W1", policy="no-limit",
            cooling="FDHS_1.0", inlet_delta_c=-8.0,
        ),
        "over-provisioned cold aisle: inlet -8 degC, no limit",
        ("ambient",),
    ),
    # -- control-parameter corners -----------------------------------------
    LibraryEntry(
        Chapter4Spec(
            scenario="throttle-storm", mix="W3", policy="ts",
            cooling="FDHS_1.0", amb_trp_c=95.0,
        ),
        "deep TS hysteresis (AMB TRP 95) forcing long on/off swings",
        ("control", "stress"),
    ),
    LibraryEntry(
        Chapter4Spec(
            scenario="fast-control", mix="W1", policy="acg",
            dtm_interval_s=0.002,
        ),
        "2 ms DTM interval: control overhead dominates (Fig. 4.11 corner)",
        ("control",),
    ),
    LibraryEntry(
        Chapter4Spec(
            scenario="worst-case-comb", mix="W3", policy="comb",
            ambient="integrated", interaction=2.0, inlet_delta_c=5.0,
        ),
        "combined policy under integrated ambient, interaction 2.0, hot inlet",
        ("control", "stress"),
    ),
    # -- platform shape ----------------------------------------------------
    LibraryEntry(
        Chapter4Spec(
            scenario="asymmetric-channel", mix="W1", policy="bw",
            channels=2, dimms_per_channel=8,
        ),
        "16 DIMMs down 2 channels: double bypass traffic per AMB",
        ("platform",),
    ),
    LibraryEntry(
        Chapter4Spec(
            scenario="deep-chain", mix="W4", policy="ts", dimms_per_channel=8
        ),
        "8-DIMM daisy chains on all 4 channels under DTM-TS",
        ("platform",),
    ),
    # -- traffic shape -----------------------------------------------------
    LibraryEntry(
        Chapter4Spec(
            scenario="idle-burst", mix="W1", policy="no-limit",
            duty_cycle=0.25, duty_period_s=0.4,
        ),
        "bursty batch: cores run 25% of each 400 ms period",
        ("traffic",),
    ),
    LibraryEntry(
        Chapter4Spec(
            scenario="narrow-pipe", mix="W2", policy="bw", bandwidth_scale=0.5
        ),
        "memory envelope halved: queueing-dominated latency under DTM-BW",
        ("traffic",),
    ),
    LibraryEntry(
        Chapter4Spec(
            scenario="integrated-cdvfs", mix="W1", policy="cdvfs+pid",
            ambient="integrated",
        ),
        "CDVFS+PID under the integrated ambient model (Fig. 4.12 cell)",
        ("control",),
    ),
    # -- server (Chapter 5) what-ifs ---------------------------------------
    LibraryEntry(
        Chapter5Spec(
            scenario="server-hot-inlet", mix="W1", policy="comb",
            platform="PE1950", ambient_override_c=45.0,
        ),
        "PE1950 with a 45 degC memory inlet under the combined policy",
        ("server", "ambient"),
    ),
    LibraryEntry(
        Chapter5Spec(
            scenario="server-low-tdp", mix="W11", policy="acg",
            platform="SR1500AL", amb_tdp_c=80.0,
        ),
        "SR1500AL derated to an 80 degC AMB TDP under DTM-ACG",
        ("server", "control"),
    ),
    LibraryEntry(
        Chapter5Spec(
            scenario="server-coarse-slice", mix="W2", policy="bw",
            platform="PE1950", time_slice_s=0.5,
        ),
        "PE1950 with 500 ms OS time slices under DTM-BW",
        ("server", "traffic"),
    ),
)

_BY_NAME = {entry.spec.scenario: entry for entry in SCENARIO_LIBRARY}

#: Sorted names of every library scenario.
SCENARIO_NAMES: tuple[str, ...] = tuple(sorted(_BY_NAME))


def get_scenario(name: str) -> LibraryEntry:
    """Look up a library scenario by name."""
    entry = _BY_NAME.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown scenario {name!r} (have: {', '.join(SCENARIO_NAMES)})"
        )
    return entry


def iter_scenarios(
    kind: str | None = None, tag: str | None = None
) -> Iterator[LibraryEntry]:
    """Library scenarios in name order, optionally filtered."""
    for name in SCENARIO_NAMES:
        entry = _BY_NAME[name]
        if kind is not None and entry.spec.kind != kind:
            continue
        if tag is not None and tag not in entry.tags:
            continue
        yield entry
