"""Per-layer metrics of a traced run, derived from span totals.

``*_calls`` and the other counts are exact.  ``*_self_us`` is self time
per simulated window on the simulation workloads and per request on
``service_mix``; ``*_us`` without ``self`` is inclusive time per call.
Every name is reported on every workload: a layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

#: (metric, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("engine.windows", "count"),
    ("engine.step_self_us", "us"),
    ("engine.apply_self_us", "us"),
    ("simulator.body_windows", "count"),
    ("simulator.fast_windows", "count"),
    ("simulator.fast_ratio", "ratio"),
    ("simulator.body_self_us", "us"),
    ("windowmodel.evaluate_calls", "count"),
    ("windowmodel.misses", "count"),
    ("windowmodel.hit_ratio", "ratio"),
    ("windowmodel.self_us", "us"),
    ("sharing.solve_calls", "count"),
    ("sharing.self_us", "us"),
    ("batch.advance_calls", "count"),
    ("batch.self_us", "us"),
    ("dtm.decide_calls", "count"),
    ("dtm.decide_self_us", "us"),
    ("dtm.decide_all_calls", "count"),
    ("dtm.decide_all_self_us", "us"),
    ("kernel.step_calls", "count"),
    ("kernel.lane_steps", "count"),
    ("kernel.self_us", "us"),
    ("gang.planned", "count"),
    ("gang.cells_ganged", "count"),
    ("gang.cells_solo", "count"),
    ("gang.step_path.vector", "count"),
    ("gang.step_path.fallback", "count"),
    ("gang.plan_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("api.request_us", "us"),
    ("api.handler_us", "us"),
    ("api.envelope_us", "us"),
    ("http.wire_us", "us"),
    ("http.refused_429", "count"),
    ("jobs.submit_us", "us"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("testbed.windows", "count"),
    ("testbed.self_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.wrapper_ns", "ns"),
)

#: Span name -> layer row of the self-time table.
SPAN_LAYER = {
    "engine.step": "engine.stepping (step)",
    "engine.apply": "engine.stepping (apply)",
    "simulator.window": "core.simulator (window body)",
    "simulator.body": "core.simulator (window body)",
    "simulator.fast": "core.simulator (window body)",
    "windowmodel.evaluate": "core.windowmodel (evaluate)",
    "sharing.solve": "cache.sharing (solve)",
    "batch.advance": "workloads.batch (advance)",
    "dtm.decide": "dtm (decide)",
    "dtm.decide_all": "dtm (decide_all)",
    "kernel.step": "core.kernel (step)",
    "testbed.window": "testbed",
    "testbed.evaluate": "testbed",
    "store.get": "campaign.stores (get)",
    "store.put": "campaign.stores (put)",
    "api.request": "api (request)",
    "api.handler": "api (handler)",
    "api.envelope": "api (envelope)",
    "jobs.submit": "jobs (submit)",
}


def layer_metrics(totals: dict, extra: dict, units: int, scale: float = 1.0) -> dict:
    """Metrics from span totals; ``units`` divides the ``*_self_us`` rows.

    ``scale`` converts host time to reference-normalized time.
    """

    def calls(name: str) -> int:
        return totals.get(name, (0, 0, 0))[0]

    def self_us(*names: str) -> float:
        ns = sum(totals.get(name, (0, 0, 0))[1] for name in names)
        return ns * scale / 1000.0 / units if units else 0.0

    def per_call_us(name: str) -> float:
        count, _, total_ns = totals.get(name, (0, 0, 0))
        return total_ns * scale / 1000.0 / count if count else 0.0

    body = calls("simulator.body")
    fast = calls("simulator.fast")
    evaluate = calls("windowmodel.evaluate")
    misses = extra.get("windowmodel.misses", 0)
    return {
        "engine.step_self_us": self_us("engine.step"),
        "engine.apply_self_us": self_us("engine.apply"),
        "simulator.body_windows": body,
        "simulator.fast_windows": fast,
        "simulator.fast_ratio": fast / (fast + body) if fast + body else 0.0,
        "simulator.body_self_us": self_us(
            "simulator.window", "simulator.body", "simulator.fast"
        ),
        "windowmodel.evaluate_calls": evaluate,
        "windowmodel.misses": misses,
        "windowmodel.hit_ratio": 1.0 - misses / evaluate if evaluate else 0.0,
        "windowmodel.self_us": self_us("windowmodel.evaluate"),
        "sharing.solve_calls": calls("sharing.solve"),
        "sharing.self_us": self_us("sharing.solve"),
        "batch.advance_calls": calls("batch.advance"),
        "batch.self_us": self_us("batch.advance"),
        "dtm.decide_calls": calls("dtm.decide"),
        "dtm.decide_self_us": self_us("dtm.decide"),
        "dtm.decide_all_calls": calls("dtm.decide_all"),
        "dtm.decide_all_self_us": self_us("dtm.decide_all"),
        "kernel.step_calls": calls("kernel.step"),
        "kernel.lane_steps": extra.get("kernel.lane_steps", 0),
        "kernel.self_us": self_us("kernel.step"),
        "store.puts": calls("store.put"),
        "store.get_us": per_call_us("store.get"),
        "store.put_us": per_call_us("store.put"),
        "api.request_us": per_call_us("api.request"),
        "api.handler_us": per_call_us("api.handler"),
        "api.envelope_us": per_call_us("api.envelope"),
        "jobs.submit_us": per_call_us("jobs.submit"),
        "testbed.windows": calls("testbed.window"),
        "testbed.self_us": self_us("testbed.window", "testbed.evaluate"),
    }


def self_time_table(totals: dict, scale: float = 1.0) -> list[tuple[str, int, float, float]]:
    """(layer, calls, self ms, share of all self time), largest first."""
    rows: dict[str, list] = {}
    for name, (count, self_ns, _) in totals.items():
        layer = SPAN_LAYER.get(name, name)
        row = rows.setdefault(layer, [0, 0.0])
        row[0] += count
        row[1] += self_ns * scale / 1e6
    grand = sum(ms for _, ms in rows.values()) or 1.0
    table = [(layer, count, ms, ms / grand) for layer, (count, ms) in rows.items()]
    table.sort(key=lambda row: -row[2])
    return table


def print_table(table, title: str) -> None:
    print(f"  {title} self time by layer (reference-normalized):")
    for layer, calls, ms, share in table:
        print(f"    {layer:34s} calls {calls:9d}  self {ms:10.1f} ms  {share:6.1%}")


def write_table(table, path: str) -> None:
    with open(path, "w") as handle:
        for layer, calls, ms, share in table:
            handle.write(f"{layer:34s} {calls:10d} {ms:12.1f} ms {share:7.1%}\n")


def complete(values: dict) -> dict:
    """Every PER_LAYER name with its unit; absent ones read 0."""
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}
