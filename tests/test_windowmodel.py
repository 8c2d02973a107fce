"""Level-1 analytic window model."""

import dataclasses
import math
import random

import pytest
from test_cache import oracle_solve

from repro.cache.mrc import MissRatioCurve
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.sharing import SharedCacheModel
from repro.core.windowmodel import MemoryEnvelope, SlotResult, WindowModel, WindowResult
from repro.engine import codec
from repro.errors import ConfigurationError
from repro.units import CACHE_LINE_BYTES
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import AppProfile, get_app

F_MAX = 3.2e9


def _model(**kwargs) -> WindowModel:
    return WindowModel(**kwargs)


def test_memory_off_means_no_progress():
    model = _model()
    result = model.evaluate([get_app("swim")] * 4, F_MAX, memory_on=False)
    assert result.instructions_per_s == 0.0
    assert result.total_bytes_per_s == 0.0


def test_zero_cap_behaves_as_off():
    model = _model()
    result = model.evaluate([get_app("swim")], F_MAX, bandwidth_cap_bytes_per_s=0.0)
    assert result.instructions_per_s == 0.0


def test_solo_faster_than_shared_per_program():
    model = _model()
    solo = model.evaluate([get_app("swim")], F_MAX)
    shared = model.evaluate([get_app("swim")] * 4, F_MAX)
    assert solo.slots[0].instructions_per_s > shared.slots[0].instructions_per_s


def test_cap_limits_throughput():
    model = _model()
    capped = model.evaluate([get_app("swim")] * 4, F_MAX, bandwidth_cap_bytes_per_s=6.4e9)
    assert capped.total_bytes_per_s <= 6.4e9 * 1.01


def test_tighter_cap_means_less_throughput_and_progress():
    model = _model()
    apps = [get_app("swim")] * 4
    loose = model.evaluate(apps, F_MAX, bandwidth_cap_bytes_per_s=19.2e9)
    tight = model.evaluate(apps, F_MAX, bandwidth_cap_bytes_per_s=6.4e9)
    assert tight.total_bytes_per_s < loose.total_bytes_per_s
    assert tight.instructions_per_s < loose.instructions_per_s


def test_lower_frequency_reduces_traffic():
    """CDVFS effect: fewer speculative accesses at lower core speed."""
    model = _model()
    apps = get_mix("W1").apps
    fast = model.evaluate(apps, 3.2e9)
    slow = model.evaluate(apps, 1.6e9)
    assert slow.total_bytes_per_s < fast.total_bytes_per_s
    # Traffic *per instruction* also drops (the speculation surcharge).
    fast_per_instr = fast.total_bytes_per_s / fast.instructions_per_s
    slow_per_instr = slow.total_bytes_per_s / slow.instructions_per_s
    assert slow_per_instr < fast_per_instr


def test_fewer_cores_reduce_traffic_per_instruction():
    """ACG effect: two co-runners conflict less in the shared L2.

    Compare copies of the *same* program so the per-instruction traffic
    change isolates the cache-share effect.
    """
    model = _model()
    swim = get_app("swim")
    four = model.evaluate([swim] * 4, F_MAX)
    two = model.evaluate([swim] * 2, F_MAX)
    four_per_instr = four.total_bytes_per_s / four.instructions_per_s
    two_per_instr = two.total_bytes_per_s / two.instructions_per_s
    assert two_per_instr < four_per_instr


def test_high_mixes_demand_over_10gbps():
    """§4.3.2 calibration: the eight high-intensity programs exceed
    10 GB/s when four copies run."""
    model = _model()
    for name in ("swim", "mgrid", "applu", "galgel", "art", "equake", "lucas", "fma3d"):
        result = model.evaluate([get_app(name)] * 4, F_MAX)
        assert result.total_bytes_per_s > 10e9, name


def test_moderate_mixes_demand_5_to_10gbps():
    """§4.3.2 calibration: the four moderate programs sit in 5-10 GB/s."""
    model = _model()
    for name in ("wupwise", "vpr", "mcf", "apsi"):
        result = model.evaluate([get_app(name)] * 4, F_MAX)
        assert 4.0e9 < result.total_bytes_per_s < 11e9, name


def test_memoization_hits():
    model = _model()
    apps = get_mix("W1").apps
    model.evaluate(apps, F_MAX)
    entries = model.cache_entries
    model.evaluate(apps, F_MAX)
    assert model.cache_entries == entries


def test_memoized_result_respects_slot_order():
    model = _model()
    a, b = get_app("swim"), get_app("vpr")
    first = model.evaluate([a, b], F_MAX)
    second = model.evaluate([b, a], F_MAX)
    assert first.slots[0].app_name == "swim"
    assert second.slots[0].app_name == "vpr"
    assert first.total_bytes_per_s == pytest.approx(second.total_bytes_per_s)
    assert first.slots[0].instructions_per_s == pytest.approx(
        second.slots[1].instructions_per_s
    )


def test_utilization_bounded():
    model = _model()
    result = model.evaluate([get_app("swim")] * 4, F_MAX)
    assert 0.0 <= result.utilization <= 1.0


def test_latency_grows_with_load():
    model = _model()
    light = model.evaluate([get_app("vpr")], F_MAX)
    heavy = model.evaluate([get_app("swim")] * 4, F_MAX)
    assert heavy.latency_s > light.latency_s


def test_envelope_latency_curve():
    envelope = MemoryEnvelope()
    assert envelope.latency_s(0.0) == pytest.approx(envelope.idle_latency_s)
    assert envelope.latency_s(0.9) > envelope.latency_s(0.5) > envelope.latency_s(0.1)
    # Clamped at rho_max.
    assert envelope.latency_s(2.0) == envelope.latency_s(0.98)


def test_envelope_validation():
    with pytest.raises(ConfigurationError):
        MemoryEnvelope(idle_latency_s=0.0)
    with pytest.raises(ConfigurationError):
        MemoryEnvelope(rho_max=1.5)


def test_cache_capacity_changes_result():
    apps = [get_app("galgel")] * 2
    small = _model(l2_capacity_bytes=1024 * 1024).evaluate(apps, F_MAX)
    large = _model(l2_capacity_bytes=16 * 1024 * 1024).evaluate(apps, F_MAX)
    assert small.l2_misses_per_s > large.l2_misses_per_s


def test_slot_results_aggregate_consistently():
    model = _model()
    result = model.evaluate(get_mix("W3").apps, F_MAX)
    assert result.read_bytes_per_s == pytest.approx(
        sum(s.read_bytes_per_s for s in result.slots)
    )
    assert result.l2_misses_per_s == pytest.approx(
        sum(s.l2_misses_per_s for s in result.slots)
    )


def _oracle_rates_at_latency(apps, frequency_hz, latency_s, capacity, frequency_scale):
    """Plain per-client IPC sweeps at a pinned latency: every sweep,
    including the latency-free first one, solves the cache split."""
    ipc = [1.0 / app.cpi_base for app in apps]
    latency_cycles = latency_s * frequency_hz
    for _ in range(8):
        rates = [
            frequency_hz * ipc[index] * app.apki / 1000.0
            for index, app in enumerate(apps)
        ]
        _, miss_ratio = oracle_solve(capacity, rates, [app.mrc for app in apps])
        for index, app in enumerate(apps):
            mpi = app.apki / 1000.0 * miss_ratio[index]
            stall_cpi = mpi * latency_cycles / app.mlp
            target_ipc = 1.0 / (app.cpi_base + stall_cpi)
            ipc[index] += (target_ipc - ipc[index]) * 0.6
    demand = 0.0
    for index, app in enumerate(apps):
        mpi = app.apki / 1000.0 * miss_ratio[index]
        spec = 1.0 + app.spec_traffic_frac * frequency_scale
        bytes_per_instr = mpi * CACHE_LINE_BYTES * (spec + app.write_frac)
        demand += frequency_hz * ipc[index] * bytes_per_instr
    return ipc, miss_ratio, demand


def _oracle_window(apps, frequency_hz, cap, capacity):
    """The level-1 bisection built on the oracle sweeps (default envelope)."""
    envelope = MemoryEnvelope()
    effective_peak = envelope.peak_bandwidth_bytes_per_s
    if cap is not None:
        effective_peak = min(effective_peak, cap)
    frequency_scale = frequency_hz / F_MAX
    rho_max = envelope.rho_max
    scale = 1.0
    ipc, miss_ratio, demand = _oracle_rates_at_latency(
        apps, frequency_hz, envelope.latency_s(rho_max), capacity, frequency_scale
    )
    if demand >= rho_max * effective_peak:
        utilization = rho_max
        latency = envelope.latency_s(rho_max)
        if demand > 0:
            scale = rho_max * effective_peak / demand
    else:
        lo, hi = 0.0, rho_max
        for _ in range(24):
            mid = (lo + hi) / 2.0
            _, _, demand_mid = _oracle_rates_at_latency(
                apps, frequency_hz, envelope.latency_s(mid), capacity, frequency_scale
            )
            if demand_mid > mid * effective_peak:
                lo = mid
            else:
                hi = mid
        utilization = (lo + hi) / 2.0
        latency = envelope.latency_s(utilization)
        ipc, miss_ratio, _ = _oracle_rates_at_latency(
            apps, frequency_hz, latency, capacity, frequency_scale
        )
    slots = []
    total_read = total_write = 0.0
    for index, app in enumerate(apps):
        ips = frequency_hz * ipc[index] * scale
        accesses = ips * app.apki / 1000.0
        misses = accesses * miss_ratio[index]
        spec = 1.0 + app.spec_traffic_frac * frequency_scale
        read_bps = misses * CACHE_LINE_BYTES * spec
        write_bps = misses * CACHE_LINE_BYTES * app.write_frac
        total_read += read_bps
        total_write += write_bps
        slots.append(
            SlotResult(app.name, ips, ipc[index] * scale, accesses, misses, read_bps, write_bps)
        )
    return WindowResult(tuple(slots), total_read, total_write, min(utilization, 1.0), latency)


def test_evaluate_matches_oracle_bit_for_bit():
    """A cold evaluation (hoisted first sweep, flat sharing kernels)
    equals the plain per-client model exactly, for a seeded sample of
    (apps, frequency, cap, L2 capacity) keys covering 1-4 co-runners,
    saturated and bisected operating points."""
    rng = random.Random(20070609)
    saturated = set()
    for index in range(16):
        mix_apps = get_mix(f"W{index % 8 + 1}").apps
        apps = rng.sample(mix_apps, rng.randint(1, len(mix_apps)))
        frequency = rng.choice([3.2e9, 2.8e9, 2.4e9, 1.6e9, 0.8e9])
        cap = rng.choice([None, 1.6e9, 3.2e9, 6.4e9, 12.8e9])
        override = rng.choice([None, 2 * 1024 * 1024])
        capacity = 4 * 1024 * 1024 if override is None else override
        result = WindowModel(l2_capacity_bytes=capacity).evaluate(apps, frequency, cap)
        assert result == _oracle_window(apps, frequency, cap, capacity)
        saturated.add(result.utilization == MemoryEnvelope().rho_max)
    assert saturated == {True, False}


def _numeric_fields(cls: type) -> list[str]:
    return [
        f.name
        for f in dataclasses.fields(cls)
        if isinstance(f.metadata.get("domain"), (codec.Float, codec.Count))
    ]


_CURVE = dict(m_peak=0.8, m_floor=0.2, c_half_bytes=1024.0 * 1024.0)
_MODEL_INPUTS = {
    MemoryEnvelope: {},
    MissRatioCurve: _CURVE,
    AppProfile: dict(
        name="probe", suite="cpu2000", cpi_base=0.5, apki=20.0,
        mrc=MissRatioCurve(**_CURVE), write_frac=0.3, mlp=4.0,
        instructions=1e9,
    ),
    SharedCacheModel: dict(capacity_bytes=4 * 1024 * 1024),
    SetAssociativeCache: dict(capacity_bytes=64 * 1024, ways=8, line_bytes=64),
}
_MODEL_FIELDS = [
    (cls, field) for cls in _MODEL_INPUTS for field in _numeric_fields(cls)
]


@pytest.mark.parametrize(
    "cls, field", _MODEL_FIELDS, ids=lambda value: getattr(value, "__name__", value)
)
def test_model_inputs_refuse_nan_in_every_numeric_field(cls, field):
    """A NaN fails every bound, so no level-1 input can carry one (an
    integer field refuses any float)."""
    cls(**_MODEL_INPUTS[cls])  # the base values build
    refusal = "finite" if isinstance(codec.domain_of(cls, field), codec.Float) else "an integer"
    with pytest.raises(ConfigurationError, match=rf"^{field} must be {refusal}"):
        cls(**{**_MODEL_INPUTS[cls], field: math.nan})


@pytest.mark.parametrize("value", [math.inf, 0, -1])
@pytest.mark.parametrize(
    "cls, field",
    [(cls, field) for cls, field in _MODEL_FIELDS
     if cls in (SharedCacheModel, SetAssociativeCache)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_cache_inputs_refuse_infinity_and_non_positive_values(cls, field, value):
    """The cache geometry is refused at construction, naming the field,
    so ``solve`` and ``access`` never see a bad capacity."""
    with pytest.raises(ConfigurationError, match=rf"^{field} must be"):
        cls(**{**_MODEL_INPUTS[cls], field: value})
