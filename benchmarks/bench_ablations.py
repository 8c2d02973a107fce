"""Ablation benches for the design choices DESIGN.md calls out.

- PID anti-windup on/off: without the integral-enable threshold the
  controller winds up during the long cold approach and overshoots.
- ACG round-robin rotation vs fixed victims: rotation spreads the
  gating penalty over jobs; pinning victims starves the same slots.
- Variable read latency (VRL) on/off in the FBDIMM channel.
- Heat spreader type at matched air velocity (AOHS vs FDHS).
- Hot-DIMM position: bypass-traffic asymmetry along the daisy chain.
"""

from _common import copies, emit, run_once

from repro.analysis.tables import format_table
from repro.core.memspot import MemSpot
from repro.core.simulator import SimulationConfig, TwoLevelSimulator
from repro.core.windowmodel import WindowModel
from repro.dram.address import AddressMapper
from repro.dram.controller import ChannelController
from repro.dram.trafficgen import poisson_trace
from repro.dtm import DTMACG, PIDPolicy
from repro.params.dram_timing import FBDIMMChannelParams
from repro.params.thermal_params import AOHS_1_0, FDHS_1_0, ISOLATED_AMBIENT
from repro.thermal.isolated import stable_temperatures
from repro.units import gbps


def test_ablation_pid_antiwindup(benchmark):
    def build():
        model = WindowModel()
        config = SimulationConfig(mix_name="W1", copies=copies())
        rows = []
        for label, enabled in (("anti-windup ON", True), ("anti-windup OFF", False)):
            policy = PIDPolicy("cdvfs", integral_enabled=enabled)
            result = TwoLevelSimulator(config, policy, window_model=model).run()
            rows.append([label, result.runtime_s, result.peak_amb_c])
        return format_table(["variant", "runtime (s)", "peak AMB (degC)"], rows)

    emit("ablation_pid_antiwindup", run_once(benchmark, build))


def test_ablation_acg_rotation(benchmark):
    def build():
        model = WindowModel()
        rows = []
        for label, interval in (("round-robin 100ms", 0.100), ("fixed victims", 1e9)):
            config = SimulationConfig(
                mix_name="W1", copies=copies(), rotation_interval_s=interval
            )
            result = TwoLevelSimulator(config, DTMACG(), window_model=model).run()
            rows.append([label, result.runtime_s, result.traffic_bytes / 1e12])
        return format_table(["variant", "runtime (s)", "traffic (TB)"], rows)

    emit("ablation_acg_rotation", run_once(benchmark, build))


def test_ablation_variable_read_latency(benchmark):
    def build():
        mapper = AddressMapper(channels=1, dimms_per_channel=8, banks_per_dimm=8)
        rows = []
        for label, vrl in (("VRL on", True), ("VRL off", False)):
            controller = ChannelController(
                dimms=8,
                banks_per_dimm=8,
                params=FBDIMMChannelParams(variable_read_latency=vrl),
            )
            trace = poisson_trace(
                count=2000, address_space_bytes=1 << 28,
                mean_interarrival_s=3e-7, seed=11,
            )
            controller.run(trace, mapper.decode)
            rows.append(
                [label,
                 controller.stats.average_latency_s() * 1e9,
                 controller.stats.percentile_latency_s(0.95) * 1e9]
            )
        return format_table(["variant", "mean latency (ns)", "p95 latency (ns)"], rows)

    emit("ablation_vrl", run_once(benchmark, build))


def test_ablation_heat_spreader(benchmark):
    def build():
        # Same power, same 1.0 m/s airflow: the AMB-only spreader lets
        # the AMB run hotter while keeping the DRAM chips cooler.
        rows = []
        for cooling in (AOHS_1_0, FDHS_1_0):
            t = stable_temperatures(45.0, amb_power_w=6.5, dram_power_w=2.5, cooling=cooling)
            rows.append([cooling.name, t.amb_c, t.dram_c, t.amb_c - t.dram_c])
        return format_table(
            ["spreader", "stable AMB (degC)", "stable DRAM (degC)", "gap (degC)"],
            rows,
        )

    emit("ablation_heat_spreader", run_once(benchmark, build))


def test_ablation_hot_dimm_position(benchmark):
    def build():
        spot = MemSpot(FDHS_1_0, ISOLATED_AMBIENT, physical_channels=4, dimms_per_channel=4)
        for _ in range(600):
            spot.step(gbps(14.0), gbps(4.0), 0.0, 1.0)
        rows = []
        for position, model in enumerate(spot.dimm_models):
            temps = model.temperatures
            rows.append([f"DIMM {position}", temps.amb_c, temps.dram_c])
        return format_table(["position", "AMB (degC)", "DRAM (degC)"], rows)

    emit("ablation_hot_dimm", run_once(benchmark, build))
