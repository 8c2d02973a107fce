"""Per-DIMM power with the daisy-chain local/bypass traffic split.

On an FBDIMM channel the memory controller reaches DIMM *i* through the
AMBs of DIMMs 0..i-1, so every request to a far DIMM is *bypass* traffic
at every nearer AMB (Fig. 3.2).  With addresses interleaved uniformly
across the chain, DIMM *i* of an *n*-DIMM channel sees:

- local traffic  = T / n
- bypass traffic = T * (n - 1 - i) / n

which makes the DIMM closest to the controller both the busiest AMB and
(all else equal) the hottest — matching the paper's observation that the
first DIMM of the PE1950 always reads hottest (§5.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.power.amb_power import amb_power_w
from repro.power.dram_power import dram_power_w


@dataclass(frozen=True)
class ChannelTraffic:
    """Aggregate read/write throughput carried by one FBDIMM channel."""

    read_bytes_per_s: float
    write_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.read_bytes_per_s < 0 or self.write_bytes_per_s < 0:
            raise ConfigurationError("channel throughput must be non-negative")

    @property
    def total_bytes_per_s(self) -> float:
        """Combined read + write throughput."""
        return self.read_bytes_per_s + self.write_bytes_per_s


@dataclass(frozen=True)
class DimmPower:
    """Power breakdown of one DIMM at one instant."""

    #: Position on the daisy chain, 0 = closest to the controller.
    position: int
    amb_w: float
    dram_w: float

    @property
    def total_w(self) -> float:
        """AMB + DRAM power of this DIMM."""
        return self.amb_w + self.dram_w


def channel_dimm_powers(
    traffic: ChannelTraffic,
    dimms: int,
) -> list[DimmPower]:
    """Power of every DIMM on one channel under uniform interleaving,
    with the Table 3.1 / Eq. 3.1 power constants.

    Args:
        traffic: total read/write throughput on the channel.
        dimms: number of DIMMs on the daisy chain (>= 1).

    Returns:
        One :class:`DimmPower` per chain position, nearest first.
    """
    if dimms < 1:
        raise ConfigurationError(f"a channel needs at least one DIMM, got {dimms}")
    total = traffic.total_bytes_per_s
    local = total / dimms
    local_read = traffic.read_bytes_per_s / dimms
    local_write = traffic.write_bytes_per_s / dimms
    powers = []
    for position in range(dimms):
        bypass = total * (dimms - 1 - position) / dimms
        amb_w = amb_power_w(
            local_bytes_per_s=local,
            bypass_bytes_per_s=bypass,
            is_last_dimm=(position == dimms - 1),
        )
        dram_w = dram_power_w(local_read, local_write)
        powers.append(DimmPower(position=position, amb_w=amb_w, dram_w=dram_w))
    return powers
