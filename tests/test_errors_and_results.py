"""Exception hierarchy and result containers."""

import pytest

from repro import errors
from repro.core.results import RunResult, TemperatureTrace
from repro.errors import SimulationError


def test_all_errors_derive_from_repro_error():
    for name in (
        "ConfigurationError",
        "TimingViolationError",
        "ProtocolError",
        "SchedulingError",
        "ThermalModelError",
        "SimulationError",
        "WorkloadError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)


def test_catching_base_catches_all():
    with pytest.raises(errors.ReproError):
        raise errors.TimingViolationError("tRCD")


def test_trace_append_and_window():
    trace = TemperatureTrace()
    for t in range(10):
        trace.append(float(t), 100.0 + t, 80.0, 50.0)
    assert len(trace) == 10
    sub = trace.window(2.0, 5.0)
    assert sub.times_s == [2.0, 3.0, 4.0]
    assert sub.amb_c == [102.0, 103.0, 104.0]


def test_trace_max_amb():
    trace = TemperatureTrace()
    trace.append(0.0, 105.0, 80.0, 50.0)
    trace.append(1.0, 110.0, 80.0, 50.0)
    assert trace.max_amb_c() == 110.0


def test_trace_max_amb_empty_raises():
    with pytest.raises(SimulationError):
        TemperatureTrace().max_amb_c()


def _result(**overrides) -> RunResult:
    defaults = dict(
        workload="W1",
        policy="DTM-TS",
        cooling="AOHS_1.5",
        runtime_s=100.0,
        traffic_bytes=1e12,
        l2_misses=1e9,
        instructions=1e12,
        cpu_energy_j=10_000.0,
        memory_energy_j=5_000.0,
        mean_ambient_c=50.0,
        peak_amb_c=110.0,
        peak_dram_c=80.0,
        shutdown_fraction=0.2,
        finished_jobs=8,
    )
    defaults.update(overrides)
    return RunResult(**defaults)


def test_average_powers():
    result = _result()
    assert result.average_cpu_power_w == pytest.approx(100.0)
    assert result.average_memory_power_w == pytest.approx(50.0)


def test_normalized_metrics():
    baseline = _result()
    other = _result(runtime_s=150.0, traffic_bytes=0.8e12)
    assert other.normalized_runtime(baseline) == pytest.approx(1.5)
    assert other.normalized_traffic(baseline) == pytest.approx(0.8)


def test_zero_baseline_rejected():
    baseline = _result(runtime_s=0.0)
    with pytest.raises(SimulationError):
        _result().normalized_runtime(baseline)
