"""Miss-ratio curves (MRCs).

An application's L2 behaviour is summarized by its miss ratio as a
function of the cache capacity it effectively owns.  The analytic window
model evaluates these curves at the shares predicted by the contention
model; the synthetic SPEC-like profiles use the parametric form below.

The parametric form is a shifted power law with a compulsory-miss floor:

``m(c) = m_floor + (m_peak - m_floor) / (1 + (c / c_half)^alpha)``

- ``m_peak``: miss ratio with a tiny cache (capacity -> 0).
- ``m_floor``: compulsory/streaming miss ratio that no capacity removes.
- ``c_half``: capacity at which the capacity-miss component halves.
- ``alpha``: sharpness of the working-set knee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.codec import Float, check_domain, domain
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MissRatioCurve:
    """Parametric miss-ratio curve of one application."""

    m_peak: float = domain(Float(0.0, 1.0))
    m_floor: float = domain(Float(0.0, 1.0))
    c_half_bytes: float = domain(Float(0.0, strict=True))
    alpha: float = domain(Float(0.0, strict=True), 1.0)

    def __post_init__(self) -> None:
        check_domain(self)
        if not self.m_floor <= self.m_peak:
            raise ConfigurationError(
                f"m_floor must be <= m_peak ({self.m_peak}), got {self.m_floor}"
            )

    def miss_ratio(self, capacity_bytes: float) -> float:
        """Miss ratio with ``capacity_bytes`` of effective cache."""
        if capacity_bytes <= 0:
            return self.m_peak
        scaled = (capacity_bytes / self.c_half_bytes) ** self.alpha
        return self.m_floor + (self.m_peak - self.m_floor) / (1.0 + scaled)

