"""The AMB power model of Eq. 3.2.

``P_AMB = P_idle + beta * T_bypass + gamma * T_local``

An AMB spends energy on requests destined for its own DRAM chips
(*local*) and on requests it merely forwards along the daisy chain
(*bypass*).  A local request costs more than a bypassed one
(gamma > beta).  Idle power depends on the chain position: the last AMB
only synchronizes with one neighbor and idles at 4.0 W instead of 5.1 W
(Table 3.1).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params.power_params import AMBPowerParams
from repro.units import to_gbps

#: The Table 3.1 constants.
_PARAMS = AMBPowerParams()


def amb_power_w(
    local_bytes_per_s: float,
    bypass_bytes_per_s: float,
    is_last_dimm: bool = False,
) -> float:
    """Power of one AMB, in watts (Eq. 3.2).

    Args:
        local_bytes_per_s: throughput of requests served by this DIMM.
        bypass_bytes_per_s: throughput of requests forwarded past it.
        is_last_dimm: whether this AMB terminates the daisy chain.

    Returns:
        AMB power in watts.

    Raises:
        ConfigurationError: if a throughput is negative.
    """
    if local_bytes_per_s < 0 or bypass_bytes_per_s < 0:
        raise ConfigurationError("throughput must be non-negative")
    p = _PARAMS
    return (
        p.idle_power_w(is_last_dimm)
        + p.beta_w_per_gbps * to_gbps(bypass_bytes_per_s)
        + p.gamma_w_per_gbps * to_gbps(local_bytes_per_s)
    )
