"""Socket-aware server performance model."""

import pytest

from repro.errors import ConfigurationError
from repro.testbed.performance import ServerWindowModel, SocketLoad
from repro.testbed.platforms import PE1950, SR1500AL
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


@pytest.mark.parametrize("platform", [PE1950, SR1500AL], ids=lambda p: p.name)
@pytest.mark.parametrize("shape", sorted(_demand_shapes()))
def test_demand_kernel_matches_rates_at_bit_for_bit(platform, shape):
    """The bisection's demand kernel is an exact re-expression of
    ``_rates_at``: same value, to the bit, at every latency, frequency
    and time slice the bisection can meet."""
    model = ServerWindowModel(platform)
    sockets = _demand_shapes()[shape]
    envelope = model.envelope
    rho_max = envelope.rho_max
    for point in platform.cpu_power.operating_points:
        frequency = point.frequency_hz
        for slice_s in (0.1, 0.005):
            demand_at = model._demand_kernel(sockets, frequency, slice_s)
            for utilization in (0.0, rho_max / 2, rho_max):
                latency = envelope.latency_s(utilization)
                _, expected = model._rates_at(sockets, frequency, latency, slice_s)
                assert demand_at(latency) == expected, (frequency, slice_s, utilization)
