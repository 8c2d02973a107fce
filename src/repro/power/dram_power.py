"""The simple DRAM power model of Eq. 3.1.

``P_DRAM = P_static + alpha1 * T_read + alpha2 * T_write``

Throughput is expressed in bytes/second at the interface of one DIMM's
DRAM chips; the coefficients are per-DIMM (Table 3.1 text: 0.98 W static,
1.12 W/(GB/s) read, 1.16 W/(GB/s) write).  Row-buffer hits never appear
because the paper fixes close-page mode with auto-precharge, making the
hit rate zero (§3.3).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params.power_params import DRAMPowerParams
from repro.units import to_gbps

#: The Table 3.1 constants.
_PARAMS = DRAMPowerParams()


def dram_power_w(
    read_bytes_per_s: float,
    write_bytes_per_s: float,
) -> float:
    """Power of one DIMM's DRAM chips, in watts (Eq. 3.1).

    Args:
        read_bytes_per_s: read throughput served by this DIMM.
        write_bytes_per_s: write throughput served by this DIMM.

    Returns:
        DRAM power in watts.

    Raises:
        ConfigurationError: if a throughput is negative.
    """
    if read_bytes_per_s < 0 or write_bytes_per_s < 0:
        raise ConfigurationError("throughput must be non-negative")
    p = _PARAMS
    return (
        p.static_w
        + p.alpha1_w_per_gbps * to_gbps(read_bytes_per_s)
        + p.alpha2_w_per_gbps * to_gbps(write_bytes_per_s)
    )
