"""Socket-aware server performance model."""

import pytest

from repro.cache.sharing import SharedCacheModel
from repro.errors import ConfigurationError
from repro.testbed.linux import TimeSliceModel
from repro.testbed.performance import (
    ProgramRate,
    ServerWindowModel,
    ServerWindowResult,
    SocketLoad,
)
from repro.testbed.platforms import PE1950, SR1500AL
from repro.units import CACHE_LINE_BYTES
from repro.workloads.profiles import get_app

F = 3.0e9
V = 1.2125


def _both_sockets(app_name="swim", active=2):
    app = get_app(app_name)
    return [
        SocketLoad(resident=(app, app), active_cores=active) for _ in range(2)
    ]


def test_served_throughput_never_exceeds_peak(pe1950_model):
    result = pe1950_model.evaluate(_both_sockets(), F, V)
    assert result.total_bytes_per_s <= PE1950.peak_bandwidth_bytes_per_s * 1.001


def test_cap_respected(pe1950_model):
    result = pe1950_model.evaluate(
        _both_sockets(), F, V, bandwidth_cap_bytes_per_s=3.0e9
    )
    assert result.total_bytes_per_s <= 3.0e9 * 1.001
    assert result.total_bytes_per_s > 2.5e9  # saturates the cap


def test_tighter_cap_less_progress(pe1950_model):
    loose = pe1950_model.evaluate(_both_sockets(), F, V, bandwidth_cap_bytes_per_s=5e9)
    tight = pe1950_model.evaluate(_both_sockets(), F, V, bandwidth_cap_bytes_per_s=2e9)
    loose_ips = sum(p.instructions_per_s for p in loose.programs)
    tight_ips = sum(p.instructions_per_s for p in tight.programs)
    assert tight_ips < loose_ips


def test_core_sharing_cuts_misses(pe1950_model):
    """The ACG effect measured in Fig. 5.8: one core per socket with two
    resident programs reduces L2 misses versus both cores running."""
    shared = pe1950_model.evaluate(_both_sockets(active=2), F, V)
    gated = pe1950_model.evaluate(_both_sockets(active=1), F, V)
    assert gated.l2_misses_per_s < shared.l2_misses_per_s


def test_core_sharing_costs_throughput(pe1950_model):
    """But gating is not free: total instruction rate drops (the
    measured ACG still loses to no-limit, Fig. 5.6)."""
    shared = pe1950_model.evaluate(_both_sockets(active=2), F, V)
    gated = pe1950_model.evaluate(_both_sockets(active=1), F, V)
    shared_ips = sum(p.instructions_per_s for p in shared.programs)
    gated_ips = sum(p.instructions_per_s for p in gated.programs)
    assert gated_ips < shared_ips


def test_short_time_slices_thrash(pe1950_model):
    """Fig. 5.15: below ~20 ms the switch-refill misses bite."""
    slow = pe1950_model.evaluate(
        _both_sockets(active=1), F, V, time_slice_s=0.005
    )
    normal = pe1950_model.evaluate(
        _both_sockets(active=1), F, V, time_slice_s=0.100
    )
    assert slow.l2_misses_per_s > normal.l2_misses_per_s
    slow_ips = sum(p.instructions_per_s for p in slow.programs)
    normal_ips = sum(p.instructions_per_s for p in normal.programs)
    assert slow_ips < normal_ips


def test_lower_frequency_reduces_heating(sr1500al_model):
    fast = sr1500al_model.evaluate(_both_sockets(), 3.0e9, 1.2125)
    slow = sr1500al_model.evaluate(_both_sockets(), 2.0e9, 1.0375)
    assert slow.heating_sum < fast.heating_sum


def test_memory_bound_ips_insensitive_to_frequency(sr1500al_model):
    """§5.4.5 / Isci et al.: memory-intensive programs lose little from
    a lower clock."""
    fast = sr1500al_model.evaluate(_both_sockets("swim"), 3.0e9, 1.2125)
    slow = sr1500al_model.evaluate(_both_sockets("swim"), 2.0e9, 1.0375)
    fast_ips = sum(p.instructions_per_s for p in fast.programs)
    slow_ips = sum(p.instructions_per_s for p in slow.programs)
    assert slow_ips > fast_ips * 0.8


def test_compute_bound_ips_tracks_frequency(sr1500al_model):
    """...while compute-bound ones scale with it (the W8 effect)."""
    fast = sr1500al_model.evaluate(_both_sockets("crafty"), 3.0e9, 1.2125)
    slow = sr1500al_model.evaluate(_both_sockets("crafty"), 2.0e9, 1.0375)
    fast_ips = sum(p.instructions_per_s for p in fast.programs)
    slow_ips = sum(p.instructions_per_s for p in slow.programs)
    assert slow_ips < fast_ips * 0.75


def test_single_program_socket(pe1950_model):
    app = get_app("mcf")
    result = pe1950_model.evaluate(
        [SocketLoad(resident=(app,), active_cores=2)], F, V
    )
    assert len(result.programs) == 1
    assert result.programs[0].instructions_per_s > 0


def test_read_write_split_positive(pe1950_model):
    result = pe1950_model.evaluate(_both_sockets("swim"), F, V)
    assert result.read_bytes_per_s > 0
    assert result.write_bytes_per_s > 0
    assert result.read_bytes_per_s > result.write_bytes_per_s


def test_memoization(pe1950_model):
    first = pe1950_model.evaluate(_both_sockets(), F, V)
    second = pe1950_model.evaluate(_both_sockets(), F, V)
    assert first is second


def test_socket_load_validation():
    app = get_app("swim")
    with pytest.raises(ConfigurationError):
        SocketLoad(resident=(), active_cores=1)
    with pytest.raises(ConfigurationError):
        SocketLoad(resident=(app,), active_cores=3)


def test_utilization_bounded(sr1500al_model):
    result = sr1500al_model.evaluate(_both_sockets(), F, V)
    assert 0.0 <= result.utilization <= 1.0
    for program in result.programs:
        assert 0.0 <= program.utilization <= 1.0


def _demand_shapes():
    """Socket lists covering the three shapes, each with unlike apps."""
    swim, gzip, mcf = get_app("swim"), get_app("gzip"), get_app("mcf")
    return {
        "shared L2": [
            SocketLoad(resident=(swim, gzip), active_cores=2),
            SocketLoad(resident=(mcf, swim), active_cores=2),
        ],
        "time-shared core": [
            SocketLoad(resident=(swim, gzip), active_cores=1),
            SocketLoad(resident=(mcf, gzip), active_cores=1),
        ],
        "solo tail": [
            SocketLoad(resident=(mcf,), active_cores=2),
            SocketLoad(resident=(swim,), active_cores=1),
        ],
    }


def _oracle_program_rate(
    platform, socket_index, app, frequency_hz, latency_cycles, share, duty, extra
):
    """Closed-form rate of one program at fixed latency and cache share."""
    mpi = app.misses_per_instruction(share)
    ips = frequency_hz * (1.0 / (app.cpi_base + mpi * latency_cycles / app.mlp)) * duty
    misses = ips * mpi
    if extra > 0.0 and ips > 0.0:
        extra_mpi = extra * duty / ips
        ipc_adj = 1.0 / (app.cpi_base + (mpi + extra_mpi) * latency_cycles / app.mlp)
        ips = frequency_hz * ipc_adj * duty
        misses = ips * (mpi + extra_mpi)
    top_frequency = platform.cpu_power.operating_points[0].frequency_hz
    spec = 1.0 + app.spec_traffic_frac * frequency_hz / top_frequency
    bytes_per_s = misses * CACHE_LINE_BYTES * (spec + app.write_frac)
    utilization = min(1.0, (ips / frequency_hz) / 2.0) if frequency_hz else 0.0
    return ProgramRate(app.name, socket_index, ips, misses, bytes_per_s, utilization)


def _oracle_rates_at(platform, sockets, frequency_hz, latency_s, slice_s):
    """Every program's rate at one latency, one object per program, and
    the total demand: the socket model written plainly."""
    capacity = platform.l2_per_socket_bytes
    cache_model = SharedCacheModel(capacity)
    slice_model = TimeSliceModel(capacity)
    latency_cycles = latency_s * frequency_hz
    programs, demand = [], 0.0
    for index, load in enumerate(sockets):
        apps = load.resident
        if len(apps) == 2 and load.active_cores == 2:
            # Shape 1: the co-runners share the L2.
            rates = []
            for app in apps:
                mpi = app.misses_per_instruction(capacity / 2)
                ipc = 1.0 / (app.cpi_base + mpi * latency_cycles / app.mlp)
                rates.append(frequency_hz * ipc * app.apki / 1000.0)
            shares, _ = cache_model.solve(rates, [app.mrc for app in apps])
            socket = [
                _oracle_program_rate(
                    platform, index, app, frequency_hz, latency_cycles, share, 1.0, 0.0
                )
                for app, share in zip(apps, shares)
            ]
        elif len(apps) == 2:
            # Shape 2: a time-shared core, switch cold misses charged.
            socket = [
                _oracle_program_rate(
                    platform, index, app, frequency_hz, latency_cycles, capacity, 0.5,
                    slice_model.extra_misses_per_s(
                        slice_s, min(app.mrc.c_half_bytes, capacity)
                    ),
                )
                for app in apps
            ]
        else:
            # Shape 3: one program, solo with the whole L2.
            socket = [
                _oracle_program_rate(
                    platform, index, apps[0], frequency_hz, latency_cycles, capacity,
                    1.0, 0.0,
                )
            ]
        programs.extend(socket)
        demand += sum(rate.bytes_per_s for rate in socket)
    return programs, demand


def _oracle_evaluate(platform, sockets, frequency_hz, voltage_v, cap, slice_s):
    """The server window on the oracle rates: a 20-step bisection, or
    uniform admission scaling when saturated."""
    envelope = ServerWindowModel(platform).envelope
    effective_peak = envelope.peak_bandwidth_bytes_per_s
    if cap is not None:
        effective_peak = min(effective_peak, max(cap, 1.0))
    rho_max = envelope.rho_max
    programs, demand = _oracle_rates_at(
        platform, sockets, frequency_hz, envelope.latency_s(rho_max), slice_s
    )
    if demand >= rho_max * effective_peak:
        scale = rho_max * effective_peak / demand if demand > 0 else 1.0
        programs = [
            ProgramRate(
                p.app_name,
                p.socket,
                p.instructions_per_s * scale,
                p.l2_misses_per_s * scale,
                p.bytes_per_s * scale,
                p.utilization * scale,
            )
            for p in programs
        ]
        utilization = rho_max
        latency = envelope.latency_s(rho_max)
    else:
        lo, hi = 0.0, rho_max
        for _ in range(20):
            mid = (lo + hi) / 2.0
            _, demand_mid = _oracle_rates_at(
                platform, sockets, frequency_hz, envelope.latency_s(mid), slice_s
            )
            if demand_mid > mid * effective_peak:
                lo = mid
            else:
                hi = mid
        utilization = (lo + hi) / 2.0
        latency = envelope.latency_s(utilization)
        programs, _ = _oracle_rates_at(platform, sockets, frequency_hz, latency, slice_s)
    write_fracs = {app.name: app.write_frac for load in sockets for app in load.resident}
    total_read = total_write = total_misses = heating = 0.0
    max_frequency = platform.cpu_power.operating_points[0].frequency_hz
    for rate in programs:
        write_frac = write_fracs[rate.app_name]
        write = rate.bytes_per_s * write_frac / (1.0 + write_frac)
        total_write += write
        total_read += rate.bytes_per_s - write
        total_misses += rate.l2_misses_per_s
        heating += voltage_v * rate.instructions_per_s / max_frequency
    return ServerWindowResult(
        tuple(programs), total_read, total_write, total_misses,
        min(utilization, 1.0), latency, heating,
    )


@pytest.mark.parametrize("platform", [PE1950, SR1500AL], ids=lambda p: p.name)
@pytest.mark.parametrize("shape", sorted(_demand_shapes()))
def test_latency_rates_match_oracle(platform, shape):
    """The one per-latency routine gives each program's rates and the
    total demand of the plain per-program model, to the bit, at every
    latency, frequency and time slice the bisection can meet."""
    model = ServerWindowModel(platform)
    sockets = _demand_shapes()[shape]
    envelope = model.envelope
    rho_max = envelope.rho_max
    for point in platform.cpu_power.operating_points:
        frequency = point.frequency_hz
        for slice_s in (0.1, 0.005):
            rates_at = model._latency_rates(sockets, frequency, slice_s)
            for utilization in (0.0, rho_max / 2, rho_max):
                latency = envelope.latency_s(utilization)
                rates, demand = rates_at(latency)
                programs, expected = _oracle_rates_at(
                    platform, sockets, frequency, latency, slice_s
                )
                where = (frequency, slice_s, utilization)
                assert demand == expected, where
                assert rates == [
                    (p.instructions_per_s, p.l2_misses_per_s, p.bytes_per_s)
                    for p in programs
                ], where


@pytest.mark.parametrize("platform", [PE1950, SR1500AL], ids=lambda p: p.name)
@pytest.mark.parametrize("shape", sorted(_demand_shapes()))
def test_evaluate_matches_oracle_bit_for_bit(platform, shape):
    """A whole evaluation, bisected or saturated, equals the oracle's."""
    sockets = _demand_shapes()[shape]
    rho_max = ServerWindowModel(platform).envelope.rho_max
    saturated = set()
    for cap in (None, 6e9, 1.5e9, 0.0):
        for point in platform.cpu_power.operating_points[::3]:
            result = ServerWindowModel(platform).evaluate(
                sockets, point.frequency_hz, point.voltage_v, cap
            )
            assert result == _oracle_evaluate(
                platform, sockets, point.frequency_hz, point.voltage_v, cap,
                platform.time_slice_s,
            )
            saturated.add(result.utilization == rho_max)
    assert saturated == {True, False}
