"""GridMemSpot: the grid kernel is bit-identical to per-cell stepping.

The acceptance property (hypothesis, derandomized for CI): stack N
heterogeneous :class:`BatchedMemSpot` cells into one
:class:`GridMemSpot`, drive both through the same traffic stream, and
every per-window grid output (read back as one :class:`MemSpotSample`
per cell) — and the final synced thermal state — is *exactly* equal (``==`` on floats, no tolerance) to stepping
each cell alone.  The property must hold for the pure-python backend
(true by construction) and, when NumPy is importable, for the numpy
backend (true because the array path replays the scalar expressions
with IEEE-correctly-rounded elementwise ops only).

NumPy optionality is covered explicitly: ``backend="auto"`` falls back
to python when the import fails, ``backend="numpy"`` refuses loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel_module
from repro.core.kernel import BatchedMemSpot, GridMemSpot, MemSpot
from repro.core.memspot import MemSpotSample
from repro.errors import ConfigurationError
from repro.params import (
    INTEGRATED_AMBIENT,
    ISOLATED_AMBIENT,
)
from repro.params.thermal_params import COOLING_CONFIGS

#: The (cooling, ambient) pairs with a recorded inlet temperature —
#: the only combinations BatchedMemSpot accepts.
_VALID_THERMAL = tuple(
    (COOLING_CONFIGS[cooling], ambient)
    for cooling in ("AOHS_1.5", "FDHS_1.0")
    for ambient in (ISOLATED_AMBIENT, INTEGRATED_AMBIENT)
)

_BACKENDS = ("python", "numpy")


def _require_backend(backend: str) -> None:
    if backend == "numpy":
        pytest.importorskip("numpy")


def _samples(columns) -> list[MemSpotSample]:
    """``step_all``'s per-cell output columns as one sample per cell."""
    amb, dram, ambient, power = (
        column if isinstance(column, list) else column.tolist()
        for column in columns
    )
    return [
        MemSpotSample(amb_c=a, dram_c=d, ambient_c=t, memory_power_w=w)
        for a, d, t, w in zip(amb, dram, ambient, power)
    ]


def _make_cell(thermal_index: int, channels: int, dimms: int, warm: bool):
    cooling, ambient = _VALID_THERMAL[thermal_index % len(_VALID_THERMAL)]
    return BatchedMemSpot(
        cooling,
        ambient,
        physical_channels=channels,
        dimms_per_channel=dimms,
        warm_start=warm,
    )


@st.composite
def _grid_case(draw):
    dimms = draw(st.sampled_from((2, 4)))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(_VALID_THERMAL) - 1),
                st.sampled_from((1, 2, 4)),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    bw = st.floats(
        min_value=0.0, max_value=12.8e9, allow_nan=False, allow_infinity=False
    )
    heat = st.floats(
        min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False
    )
    windows = draw(
        st.lists(
            st.tuples(
                st.lists(bw, min_size=len(cells), max_size=len(cells)),
                st.lists(bw, min_size=len(cells), max_size=len(cells)),
                st.lists(heat, min_size=len(cells), max_size=len(cells)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return dimms, cells, windows


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_grid_case())
def test_grid_step_is_bitwise_identical_to_per_cell(backend, case):
    """N stacked cells == N solo cells, sample by sample, bit for bit."""
    _require_backend(backend)
    dimms, cell_params, windows = case
    reference = [_make_cell(t, ch, dimms, w) for t, ch, w in cell_params]
    stacked = [_make_cell(t, ch, dimms, w) for t, ch, w in cell_params]
    grid = GridMemSpot(stacked, backend=backend)
    assert grid.backend == backend

    for reads, writes, heats, in windows:
        grid_samples = _samples(grid.step_all(reads, writes, heats, 0.01))
        for cell, read, write, heat, got in zip(
            reference, reads, writes, heats, grid_samples
        ):
            expected = cell.step(read, write, heat, 0.01)
            assert got == expected

    grid.sync()
    for cell, ref in zip(stacked, reference):
        assert cell.thermal_state() == ref.thermal_state()


@pytest.mark.parametrize("backend", _BACKENDS)
def test_grid_survives_membership_change_mid_stream(backend):
    """Rebuilding a smaller grid from synced cells continues bit-exactly

    (the gang retirement path: cells leave, the survivors' next grid
    re-pulls their state)."""
    _require_backend(backend)
    reference = [_make_cell(i, 4, 4, True) for i in range(3)]
    stacked = [_make_cell(i, 4, 4, True) for i in range(3)]

    grid = GridMemSpot(stacked, backend=backend)
    for _ in range(40):
        grid.step_all([4e9] * 3, [2e9] * 3, [24.0] * 3, 0.01)
        for cell in reference:
            cell.step(4e9, 2e9, 24.0, 0.01)
    grid.sync()

    survivors = GridMemSpot(stacked[:2], backend=backend)
    for _ in range(40):
        survivors.step_all([1e9] * 2, [8e9] * 2, [12.0] * 2, 0.01)
        for cell in reference[:2]:
            cell.step(1e9, 8e9, 12.0, 0.01)
    survivors.sync()
    for cell, ref in zip(stacked[:2], reference[:2]):
        assert cell.thermal_state() == ref.thermal_state()
    # The retired cell kept its state from the first grid.
    assert stacked[2].thermal_state() == reference[2].thermal_state()


def test_auto_backend_falls_back_to_python(monkeypatch):
    monkeypatch.setattr(kernel_module, "_import_numpy", lambda: None)
    grid = GridMemSpot([_make_cell(0, 4, 4, True)], backend="auto")
    assert grid.backend == "python"
    columns = grid.step_all([1e9], [1e9], [10.0], 0.01)
    assert all(isinstance(column, list) for column in columns)
    (sample,) = _samples(columns)
    assert sample == _make_cell(0, 4, 4, True).step(1e9, 1e9, 10.0, 0.01)


def test_numpy_backend_refuses_without_numpy(monkeypatch):
    monkeypatch.setattr(kernel_module, "_import_numpy", lambda: None)
    with pytest.raises(ConfigurationError, match="requires NumPy"):
        GridMemSpot([_make_cell(0, 4, 4, True)], backend="numpy")


def test_grid_validation_errors():
    cooling, ambient = _VALID_THERMAL[0]
    with pytest.raises(ConfigurationError, match="at least one cell"):
        GridMemSpot([])
    with pytest.raises(ConfigurationError, match="BatchedMemSpot"):
        GridMemSpot([MemSpot(cooling, ambient)])
    with pytest.raises(ConfigurationError, match="share the RC topology"):
        GridMemSpot([_make_cell(0, 4, 2, True), _make_cell(0, 4, 4, True)])
    with pytest.raises(ConfigurationError, match="backend"):
        GridMemSpot([_make_cell(0, 4, 4, True)], backend="fortran")


@pytest.mark.parametrize("backend", _BACKENDS)
def test_grid_step_input_validation(backend):
    _require_backend(backend)
    grid = GridMemSpot([_make_cell(0, 4, 4, True)], backend=backend)
    with pytest.raises(ConfigurationError):
        grid.step_all([1e9, 1e9], [1e9], [0.0], 0.01)
    with pytest.raises(ConfigurationError):
        grid.step_all([-1.0], [0.0], [0.0], 0.01)
