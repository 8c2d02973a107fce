"""Cache substrate: MRCs, sharing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.mrc import MissRatioCurve
from repro.cache.sharing import SharedCacheModel
from repro.errors import ConfigurationError

MB = 1024 * 1024


def test_mrc_monotone_non_increasing():
    curve = MissRatioCurve(m_peak=0.8, m_floor=0.2, c_half_bytes=1 * MB, alpha=1.3)
    capacities = [0.25 * MB, 0.5 * MB, 1 * MB, 2 * MB, 4 * MB, 8 * MB]
    ratios = [curve.miss_ratio(c) for c in capacities]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_mrc_limits():
    curve = MissRatioCurve(m_peak=0.8, m_floor=0.2, c_half_bytes=1 * MB)
    assert curve.miss_ratio(0) == pytest.approx(0.8)
    assert curve.miss_ratio(1 * MB) == pytest.approx(0.5)  # halfway at c_half
    assert curve.miss_ratio(1e15) == pytest.approx(0.2, abs=1e-3)


def test_mrc_validation():
    with pytest.raises(ConfigurationError):
        MissRatioCurve(m_peak=0.5, m_floor=0.6, c_half_bytes=1 * MB)
    with pytest.raises(ConfigurationError):
        MissRatioCurve(m_peak=0.5, m_floor=0.1, c_half_bytes=0.0)


def oracle_solve(capacity, rates, curves):
    """The readable per-client fixed point that ``SharedCacheModel.solve``
    must match bit for bit (flat kernels and generic loop alike)."""
    active = [index for index, rate in enumerate(rates) if rate > 0]
    shares = {}
    if len(active) == 1:
        shares[active[0]] = capacity
    elif active:
        shares = {index: capacity / len(active) for index in active}
        for _ in range(16):
            weights = {}
            for index in active:
                miss = curves[index].miss_ratio(shares[index])
                weights[index] = rates[index] * max(miss, 1e-4)
            total_weight = 0.0
            for index in active:
                total_weight += weights[index]
            for index in active:
                target = capacity * weights[index] / total_weight
                current = shares[index]
                shares[index] = current + (target - current) * 0.7
    resolved = [shares.get(index, 0.0) for index in range(len(rates))]
    return resolved, [curve.miss_ratio(share) for curve, share in zip(curves, resolved)]


def test_single_client_gets_whole_cache():
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    [share], _ = model.solve([1e9], [curve])
    assert share == pytest.approx(4 * MB)


def test_shares_sum_to_capacity():
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    shares, _ = model.solve([1e9] * 4, [curve] * 4)
    assert sum(shares) == pytest.approx(4 * MB, rel=1e-6)


def test_equal_clients_get_equal_shares():
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    shares, _ = model.solve([1e9, 1e9], [curve, curve])
    assert shares[0] == pytest.approx(shares[1], rel=1e-6)


def test_identical_co_runners_split_the_cache():
    """Clients are positional: two identical co-runners are two clients
    and split the cache, never both own all of it."""
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    shares, _ = model.solve([1e9, 1e9], [curve, curve])
    assert shares == [2 * MB, 2 * MB]
    assert sum(shares) == 4 * MB


def test_hungrier_client_takes_more():
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    (hungry, light), _ = model.solve([4e9, 1e9], [curve, curve])
    assert hungry > light


def test_idle_client_holds_nothing():
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    (busy, idle), _ = model.solve([1e9, 0.0], [curve, curve])
    assert idle == 0.0
    assert busy == pytest.approx(4 * MB)


def test_fewer_clients_lower_miss_ratio():
    """The DTM-ACG effect: removing co-runners lowers everyone's miss
    ratio through bigger shares."""
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB, alpha=1.3)
    _, four = model.solve([1e9] * 4, [curve] * 4)
    _, two = model.solve([1e9] * 2, [curve] * 2)
    assert two[0] < four[0]


def test_total_miss_rate_decreases_with_fewer_clients():
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.8, 0.2, 1 * MB, alpha=1.3)
    four = model.total_miss_rate_per_s([1e9] * 4, [curve] * 4)
    two = model.total_miss_rate_per_s([1e9] * 2, [curve] * 2)
    # Aggregate miss rate per client is lower with fewer co-runners.
    assert two / 2 < four / 4


def test_empty_client_list():
    assert SharedCacheModel(4 * MB).solve([], []) == ([], [])


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_negative_rate_rejected(count):
    curve = MissRatioCurve(0.8, 0.2, 1 * MB)
    rates = [1e9] * (count - 1) + [-1.0]
    with pytest.raises(ConfigurationError):
        SharedCacheModel(4 * MB).solve(rates, [curve] * count)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(min_value=1e6, max_value=1e10), min_size=1, max_size=4),
)
def test_shares_never_exceed_capacity(rates):
    model = SharedCacheModel(4 * MB)
    curve = MissRatioCurve(0.9, 0.1, 1 * MB)
    shares, miss_ratios = model.solve(rates, [curve] * len(rates))
    assert sum(shares) <= 4 * MB * 1.001
    assert all(0 <= miss <= 1 for miss in miss_ratios)


_curves = st.builds(
    lambda peak, floor_frac, c_half, alpha: MissRatioCurve(
        peak, peak * floor_frac, c_half, alpha
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=16 * 1024, max_value=64 * MB),
    st.floats(min_value=0.2, max_value=3.0),
)
#: About one client in four idles (zero rate); the rest span eight decades.
_rates = st.tuples(st.integers(0, 3), st.floats(min_value=1e3, max_value=1e11)).map(
    lambda drawn: 0.0 if drawn[0] == 0 else drawn[1]
)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(_rates, _curves), min_size=1, max_size=6),
    # Not only powers of two: scaling by one of those is exact, which
    # would hide a reassociated ``capacity * weight / total``.
    st.floats(min_value=256 * 1024, max_value=16 * MB),
)
def test_solve_matches_oracle_bit_for_bit(clients, capacity):
    """Every path (flat 2/3/4-client kernels, generic loop, one client,
    idle clients) reproduces the oracle exactly, including the
    left-to-right total of weights spanning eight decades."""
    rates = [rate for rate, _ in clients]
    curves = [curve for _, curve in clients]
    expected = oracle_solve(capacity, rates, curves)
    assert SharedCacheModel(capacity).solve(rates, curves) == expected
    total = 0.0
    for rate, miss in zip(rates, expected[1]):
        total += rate * miss
    assert SharedCacheModel(capacity).total_miss_rate_per_s(rates, curves) == total
