"""Named campaign grids: declarative (mix x policy x ...) sweeps.

A named grid pairs a spec expansion with the metric columns its table
reports; :meth:`repro.api.requests.CampaignRequest.cells` expands it,
and the campaign engine handles caching, parallelism, and
deterministic ordering, so the same grid run with any ``--jobs`` value
produces an identical table.

The ``ch4``/``ch5`` grids build ad-hoc cells (:func:`ch4_cell`,
:func:`ch5_cell`, the same cells a ``simulate``/``server`` request
runs), and the ``scenarios`` grid sweeps the scenario library itself,
optionally crossed with extra mixes or policies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.analysis.specs import (
    CHAPTER4_POLICY_CHOICES,
    CHAPTER5_POLICIES,
    Chapter4Spec,
    Chapter5Spec,
)
from repro.engine.codec import Text, domain_of
from repro.scenarios import SCENARIO_NAMES, get_scenario


def ch4_cell(
    mix: str,
    policy: str,
    copies: int,
    cooling: str = "AOHS_1.5",
    ambient: str = "isolated",
) -> Chapter4Spec:
    """One ad-hoc Chapter 4 cell, labelled by its axes, so a CLI run and
    the same campaign grid cell carry one label (and one cache entry)."""
    return Chapter4Spec(
        scenario=f"ch4:{cooling}:{mix}:{policy}", mix=mix, policy=policy,
        cooling=cooling, ambient=ambient, copies=copies,
    )


def ch5_cell(
    mix: str, policy: str, copies: int, platform: str = "PE1950"
) -> Chapter5Spec:
    """One ad-hoc Chapter 5 cell, labelled by its axes (see :func:`ch4_cell`)."""
    return Chapter5Spec(
        scenario=f"ch5:{platform}:{mix}:{policy}", platform=platform,
        mix=mix, policy=policy, copies=copies,
    )


@dataclass(frozen=True)
class NamedGrid:
    """One named sweep: spec expansion plus table columns."""

    name: str
    description: str
    #: The kind of one policy name on this grid.
    policy: Text
    #: Policies swept when ``--policies`` is not given; empty means
    #: "keep each scenario's own policy".
    policies_default: tuple[str, ...]
    #: CLI flag selecting this grid's third axis (e.g. "--coolings").
    variant_flag: str
    #: The kind of one value of that third axis.
    variant: Text
    #: Variant used when the flag is not given.
    variant_default: str
    #: (mixes, policies, variants, copies) -> specs.
    expand: Callable[
        [Sequence[str], Sequence[str], Sequence[str], int], list[Any]
    ]
    headers: list[str]
    #: (spec, result) -> one table row.
    row: Callable[[Any, Any], list[Any]]
    #: Mixes used when ``--mixes`` is not given; empty means "keep each
    #: scenario's own mix" (only meaningful for the scenarios grid).
    mixes_default: tuple[str, ...] = ("W1",)


def _expand_ch4(
    mixes: Sequence[str],
    policies: Sequence[str],
    coolings: Sequence[str],
    copies: int,
) -> list[Chapter4Spec]:
    return [
        ch4_cell(mix, policy, copies, cooling=cooling)
        for cooling in coolings
        for mix in mixes
        for policy in policies
    ]


def _ch4_row(spec: Chapter4Spec, result: Any) -> list[Any]:
    return [
        spec.cooling,
        spec.mix,
        spec.policy,
        result.runtime_s,
        result.traffic_bytes / 1e12,
        result.cpu_energy_j / 1e3,
        result.memory_energy_j / 1e3,
        result.peak_amb_c,
        result.peak_dram_c,
        result.shutdown_fraction,
    ]


def _expand_ch5(
    mixes: Sequence[str],
    policies: Sequence[str],
    platforms: Sequence[str],
    copies: int,
) -> list[Chapter5Spec]:
    return [
        ch5_cell(mix, policy, copies, platform=platform)
        for platform in platforms
        for mix in mixes
        for policy in policies
    ]


def _ch5_row(spec: Chapter5Spec, result: Any) -> list[Any]:
    return [
        spec.platform,
        spec.mix,
        spec.policy,
        result.runtime_s,
        result.l2_misses / 1e9,
        result.average_cpu_power_w,
        result.mean_inlet_c,
        result.peak_amb_c,
    ]


def _expand_scenarios(
    mixes: Sequence[str],
    policies: Sequence[str],
    names: Sequence[str],
    copies: int,
) -> list[Any]:
    specs = []
    for token in names:
        for name in SCENARIO_NAMES if token == "all" else [token]:
            spec = get_scenario(name).spec
            specs.extend(
                replace(spec, mix=mix, policy=policy, copies=copies)
                for mix in mixes or [spec.mix]
                for policy in policies or [spec.policy]
            )
    return specs


def _scenario_row(spec: Any, result: Any) -> list[Any]:
    return [
        spec.scenario or "-",
        spec.kind,
        spec.mix,
        spec.policy,
        result.runtime_s,
        result.traffic_bytes / 1e12,
        result.cpu_energy_j / 1e3,
        result.memory_energy_j / 1e3,
        result.peak_amb_c,
    ]


CAMPAIGN_GRIDS: dict[str, NamedGrid] = {
    "ch4": NamedGrid(
        name="ch4",
        description="Chapter 4 two-level simulation sweep "
        "(cooling x mix x policy)",
        policy=domain_of(Chapter4Spec, "policy"),
        policies_default=CHAPTER4_POLICY_CHOICES,
        variant_flag="--coolings",
        variant=domain_of(Chapter4Spec, "cooling"),
        variant_default="AOHS_1.5",
        expand=_expand_ch4,
        headers=[
            "cooling", "mix", "policy", "runtime(s)", "traffic(TB)",
            "cpuE(kJ)", "memE(kJ)", "peak AMB", "peak DRAM", "shutdown",
        ],
        row=_ch4_row,
    ),
    "ch5": NamedGrid(
        name="ch5",
        description="Chapter 5 server measurement sweep "
        "(platform x mix x policy)",
        policy=domain_of(Chapter5Spec, "policy"),
        policies_default=CHAPTER5_POLICIES,
        variant_flag="--platforms",
        variant=domain_of(Chapter5Spec, "platform"),
        variant_default="PE1950",
        expand=_expand_ch5,
        headers=[
            "platform", "mix", "policy", "runtime(s)", "L2 misses(G)",
            "avg CPU(W)", "mean inlet", "peak AMB",
        ],
        row=_ch5_row,
    ),
    "scenarios": NamedGrid(
        name="scenarios",
        description="registered scenario library "
        "(scenario [x mix] [x policy])",
        policy=Text(
            tuple(dict.fromkeys(CHAPTER4_POLICY_CHOICES + CHAPTER5_POLICIES)),
            noun="policy",
        ),
        policies_default=(),
        variant_flag="--scenarios",
        variant=Text(SCENARIO_NAMES + ("all",), noun="scenario"),
        variant_default="all",
        expand=_expand_scenarios,
        headers=[
            "scenario", "kind", "mix", "policy", "runtime(s)",
            "traffic(TB)", "cpuE(kJ)", "memE(kJ)", "peak AMB",
        ],
        row=_scenario_row,
        mixes_default=(),
    ),
}

