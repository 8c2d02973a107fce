"""Shared-cache contention model.

When several programs share an LRU cache, each one's steady-state
occupancy is roughly proportional to its *insertion* rate — the rate at
which it misses and fills new lines (the classic LRU fluid model used by
Chandra et al. and successors).  The fixed point below captures exactly
the behaviour DTM-ACG exploits: gating a core removes its insertions,
the survivors' shares grow, their miss ratios fall, and total memory
traffic drops (§4.4.2 reports ~17% on average).

Clients are positional: client ``i`` is ``rates[i]`` with
``curves[i]``, so identical co-runners are distinct clients.

Exactness contract.  The fixed point sits on the level-1 model's hot
path (a cold window evaluation runs it ~180 times), so 2, 3 and 4 fully
active clients — the only counts a 4-core Chapter 4 cell or a 2-core
Chapter 5 socket produces — run flat kernels over local variables.
Every path performs the same IEEE operations in the same order on the
same values: the miss-ratio curve's formula term by term (only the
per-curve constant ``m_peak - m_floor`` is taken once), the weight total
as a left-to-right ``+`` chain over the weights in client order, and no
expression is reassociated.  No total goes through ``sum()``: since
Python 3.12 it compensates float rounding, so its result would depend on
the interpreter.  The flat kernels, the generic loop and the readable
per-client oracle in the tests agree bit for bit on every version.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.cache.mrc import MissRatioCurve
from repro.engine.codec import Float, check_domain, domain
from repro.errors import ConfigurationError

#: Fixed-point iterations (converges geometrically; a dozen suffices for
#: four clients).
ITERATIONS = 16
#: Under-relaxation factor in (0, 1] for stability.
DAMPING = 0.7
#: Miss-ratio floor of the insertion weight: it keeps fully-fitting
#: clients from collapsing to zero share (they still own their resident
#: working set).
MISS_FLOOR = 1e-4


def _flat2(capacity, rates, curves):
    r0, r1 = rates
    c0, c1 = curves
    f0, s0, h0, a0 = c0.m_floor, c0.m_peak - c0.m_floor, c0.c_half_bytes, c0.alpha
    f1, s1, h1, a1 = c1.m_floor, c1.m_peak - c1.m_floor, c1.c_half_bytes, c1.alpha
    x0 = x1 = capacity / 2
    for _ in range(ITERATIONS):
        m0 = f0 + s0 / (1.0 + (x0 / h0) ** a0)
        m1 = f1 + s1 / (1.0 + (x1 / h1) ** a1)
        w0 = r0 * (MISS_FLOOR if m0 < MISS_FLOOR else m0)
        w1 = r1 * (MISS_FLOOR if m1 < MISS_FLOOR else m1)
        total = w0 + w1
        x0 = x0 + (capacity * w0 / total - x0) * DAMPING
        x1 = x1 + (capacity * w1 / total - x1) * DAMPING
    return [x0, x1], [c0.miss_ratio(x0), c1.miss_ratio(x1)]


def _flat3(capacity, rates, curves):
    r0, r1, r2 = rates
    c0, c1, c2 = curves
    f0, s0, h0, a0 = c0.m_floor, c0.m_peak - c0.m_floor, c0.c_half_bytes, c0.alpha
    f1, s1, h1, a1 = c1.m_floor, c1.m_peak - c1.m_floor, c1.c_half_bytes, c1.alpha
    f2, s2, h2, a2 = c2.m_floor, c2.m_peak - c2.m_floor, c2.c_half_bytes, c2.alpha
    x0 = x1 = x2 = capacity / 3
    for _ in range(ITERATIONS):
        m0 = f0 + s0 / (1.0 + (x0 / h0) ** a0)
        m1 = f1 + s1 / (1.0 + (x1 / h1) ** a1)
        m2 = f2 + s2 / (1.0 + (x2 / h2) ** a2)
        w0 = r0 * (MISS_FLOOR if m0 < MISS_FLOOR else m0)
        w1 = r1 * (MISS_FLOOR if m1 < MISS_FLOOR else m1)
        w2 = r2 * (MISS_FLOOR if m2 < MISS_FLOOR else m2)
        total = w0 + w1 + w2
        x0 = x0 + (capacity * w0 / total - x0) * DAMPING
        x1 = x1 + (capacity * w1 / total - x1) * DAMPING
        x2 = x2 + (capacity * w2 / total - x2) * DAMPING
    return (
        [x0, x1, x2],
        [c0.miss_ratio(x0), c1.miss_ratio(x1), c2.miss_ratio(x2)],
    )


def _flat4(capacity, rates, curves):
    r0, r1, r2, r3 = rates
    c0, c1, c2, c3 = curves
    f0, s0, h0, a0 = c0.m_floor, c0.m_peak - c0.m_floor, c0.c_half_bytes, c0.alpha
    f1, s1, h1, a1 = c1.m_floor, c1.m_peak - c1.m_floor, c1.c_half_bytes, c1.alpha
    f2, s2, h2, a2 = c2.m_floor, c2.m_peak - c2.m_floor, c2.c_half_bytes, c2.alpha
    f3, s3, h3, a3 = c3.m_floor, c3.m_peak - c3.m_floor, c3.c_half_bytes, c3.alpha
    x0 = x1 = x2 = x3 = capacity / 4
    for _ in range(ITERATIONS):
        m0 = f0 + s0 / (1.0 + (x0 / h0) ** a0)
        m1 = f1 + s1 / (1.0 + (x1 / h1) ** a1)
        m2 = f2 + s2 / (1.0 + (x2 / h2) ** a2)
        m3 = f3 + s3 / (1.0 + (x3 / h3) ** a3)
        w0 = r0 * (MISS_FLOOR if m0 < MISS_FLOOR else m0)
        w1 = r1 * (MISS_FLOOR if m1 < MISS_FLOOR else m1)
        w2 = r2 * (MISS_FLOOR if m2 < MISS_FLOOR else m2)
        w3 = r3 * (MISS_FLOOR if m3 < MISS_FLOOR else m3)
        total = w0 + w1 + w2 + w3
        x0 = x0 + (capacity * w0 / total - x0) * DAMPING
        x1 = x1 + (capacity * w1 / total - x1) * DAMPING
        x2 = x2 + (capacity * w2 / total - x2) * DAMPING
        x3 = x3 + (capacity * w3 / total - x3) * DAMPING
    return (
        [x0, x1, x2, x3],
        [c0.miss_ratio(x0), c1.miss_ratio(x1), c2.miss_ratio(x2), c3.miss_ratio(x3)],
    )


#: Flat kernels by client count, taken only when every client is active.
_FLAT_KERNELS = {2: _flat2, 3: _flat3, 4: _flat4}


@dataclass(frozen=True)
class SharedCacheModel:
    """Insertion-rate-proportional occupancy fixed point."""

    #: Total shared-cache capacity, bytes.
    capacity_bytes: float = domain(Float(0.0, strict=True))

    __post_init__ = check_domain

    def solve(
        self, rates: Sequence[float], curves: Sequence[MissRatioCurve]
    ) -> tuple[list[float], list[float]]:
        """Resolve shares and miss ratios for a set of co-runners.

        Args:
            rates: each client's L2 accesses per second at its current
                speed (non-negative).
            curves: each client's miss-ratio curve, in the same order.

        Returns:
            ``(shares_bytes, miss_ratios)``, one entry per client.

        A single active client receives the whole cache.  Clients with
        zero access rate hold no cache.  The fixed point iterates:

        ``share_i ∝ access_rate_i * miss_ratio_i(share_i)``

        with under-relaxation, then evaluates each client's MRC at its
        converged share.
        """
        capacity = self.capacity_bytes
        kernel = _FLAT_KERNELS.get(len(rates))
        if kernel is not None and all(rate > 0.0 for rate in rates):
            return kernel(capacity, rates, curves)
        if any(rate < 0 for rate in rates):
            raise ConfigurationError("access rate must be non-negative")
        active = [index for index, rate in enumerate(rates) if rate > 0]
        shares = [0.0] * len(rates)
        if len(active) == 1:
            shares[active[0]] = capacity
        elif active:
            for index in active:
                shares[index] = capacity / len(active)
            for _ in range(ITERATIONS):
                weights = [
                    rates[index] * max(curves[index].miss_ratio(shares[index]), MISS_FLOOR)
                    for index in active
                ]
                total_weight = 0.0
                for weight in weights:
                    total_weight += weight
                for index, weight in zip(active, weights):
                    current = shares[index]
                    target = capacity * weight / total_weight
                    shares[index] = current + (target - current) * DAMPING
        return shares, [curve.miss_ratio(share) for curve, share in zip(curves, shares)]

    def total_miss_rate_per_s(
        self, rates: Sequence[float], curves: Sequence[MissRatioCurve]
    ) -> float:
        """Aggregate miss rate (misses/second) of a co-running set."""
        _, miss_ratios = self.solve(rates, curves)
        total = 0.0
        for rate, miss in zip(rates, miss_ratios):
            total += rate * miss
        return total
