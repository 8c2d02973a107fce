"""What one benchmark run reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Report:
    """End-to-end metrics, context lines, exact counts and check results."""

    workload: str
    #: Gated end-to-end metrics: name -> (value, unit, samples).
    metrics: dict = field(default_factory=dict)
    #: Printed beside the metrics, never gated: name -> (value, unit, samples).
    context: dict = field(default_factory=dict)
    #: Exact per-layer work counts (identical for identical seeds).
    counts: dict = field(default_factory=dict)
    #: Per-layer metrics of a traced run: name -> (value, unit).
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output mismatches; any entry makes the run exit non-zero.
    problems: list = field(default_factory=list)
    #: Failures that are refusals, not wrong output: (status, reason) -> n.
    refusals: dict = field(default_factory=dict)
    digest: str = ""

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def note(self, name: str, value, unit: str, samples: int = 1) -> None:
        self.context[name] = (value, unit, int(samples))

    def mismatch(self, message: str) -> None:
        self.problems.append(message)
        self.failed += 1

    def print_human(self) -> None:
        print(f"== {self.workload}: digest {self.digest}")
        for title, table in (("metric", self.metrics), ("context", self.context)):
            for name, (value, unit, samples) in table.items():
                shown = f"{value:.6g}" if isinstance(value, float) else value
                print(f"  {title:7s} {name:28s} {shown} {unit} (n={samples})")
        for name, value in self.counts.items():
            print(f"  count   {name:28s} {value}")
        for name, (value, unit) in self.layers.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  layer   {name:28s} {shown} {unit}")
        for (status, reason), n in sorted(self.refusals.items()):
            print(f"  refused HTTP {status} {reason}: {n}")
        for problem in self.problems:
            print(f"  MISMATCH {problem}")
        print(
            f"  attempted {self.attempted} failed {self.failed} "
            f"mismatches {len(self.problems)}"
        )

    def result_line(self, trace: bool) -> str:
        if trace:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.layers.items()
            }
        else:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            }
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )
