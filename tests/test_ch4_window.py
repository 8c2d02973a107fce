"""One Chapter 4 DTM window as the run applies it (§4.2.2, §4.3).

:class:`~repro.core.simulator.Chapter4Strategy` is the one place a
policy's decision meets the chip: it gates cores round-robin, scales
them along the DVFS ladder, stops them when memory is shut down or a
burst is idle, prices the chip with Table 4.4, and reads each window's
level-1 figures from the memo of :class:`WindowModel`.  The engine
accumulates the window's CPU and memory energy.  These tests drive the
strategy one window at a time with a fixed decision.
"""

from types import SimpleNamespace

import pytest

from repro.core.simulator import Chapter4Strategy, SimulationConfig, TwoLevelSimulator
from repro.core.windowmodel import WindowModel
from repro.cpu.power import simulated_chip_power_w
from repro.dtm import DTMACG, DTMBW, DTMCDVFS, DTMTS
from repro.dtm.base import ControlDecision, DTMPolicy
from repro.engine.stepping import SteppingEngine
from repro.params.power_params import SIMULATED_CPU_POWER

POINTS = SIMULATED_CPU_POWER.operating_points
STOPPED = len(POINTS)
DT = 0.010
#: The policy ignores the reading, so a window needs no real engine.
NO_ENGINE = SimpleNamespace(sample=None)


class FixedPolicy(DTMPolicy):
    """Returns ``decision`` every window; a test may swap it."""

    name = "fixed"

    def __init__(self, decision: ControlDecision) -> None:
        self.decision = decision

    def decide(self, reading, dt_s: float) -> ControlDecision:
        return self.decision


class RecordingModel:
    """A level-1 model that records each ``evaluate`` call's options."""

    def __init__(self, model: WindowModel) -> None:
        self._model = model
        self.calls: list[dict] = []

    def evaluate(self, apps, **options):
        self.calls.append(options)
        return self._model.evaluate(apps, **options)


def _strategy(window_model, decision=ControlDecision(), **config):
    policy = FixedPolicy(decision)
    model = RecordingModel(window_model)
    strategy = Chapter4Strategy(
        SimulationConfig(mix_name="W1", copies=1, **config), policy, model
    )
    strategy.done(NO_ENGINE)
    return strategy, policy, model


def _step(strategy):
    key = strategy.window(NO_ENGINE)
    return key, strategy.window_outcome(key)


def _running(outcome) -> list[int]:
    return sorted(outcome.progress or ())


# -- core gating -----------------------------------------------------------------


def test_full_decision_runs_every_occupied_slot(window_model):
    strategy, _, _ = _strategy(window_model)
    _, outcome = _step(strategy)
    assert _running(outcome) == [0, 1, 2, 3]
    assert all(advanced > 0 for advanced in outcome.progress.values())


@pytest.mark.parametrize("active", [1, 2, 3])
def test_gating_runs_exactly_the_decided_core_count(window_model, active):
    strategy, _, model = _strategy(window_model, ControlDecision(active_cores=active))
    for _ in range(30):
        _, outcome = _step(strategy)
        assert len(_running(outcome)) == active
    assert all(call["memory_on"] for call in model.calls)


def test_zero_active_cores_stop_progress_and_traffic(window_model):
    strategy, _, model = _strategy(window_model, ControlDecision(active_cores=0))
    _, outcome = _step(strategy)
    assert outcome.progress is None
    assert outcome.traffic_bytes == 0.0
    assert outcome.l2_misses == 0.0
    assert model.calls == []


def test_more_active_cores_than_jobs_runs_every_job(window_model, monkeypatch):
    """Six cores, four jobs: a decision for five runs all four."""
    monkeypatch.setattr("repro.core.simulator.CORES", 6)
    strategy, _, _ = _strategy(window_model, ControlDecision(active_cores=5))
    _, outcome = _step(strategy)
    assert len(_running(outcome)) == 4


def test_rotation_changes_the_gated_victims(window_model):
    strategy, _, _ = _strategy(window_model, ControlDecision(active_cores=2))
    key, outcome = _step(strategy)
    first = _running(outcome)
    while True:
        next_key, outcome = _step(strategy)
        if next_key[2] != key[2]:
            break
    assert _running(outcome) != first


@pytest.mark.parametrize("active", [1, 2, 3])
def test_rotation_gates_and_runs_every_core_over_a_cycle(window_model, active):
    """Round-robin fairness: over a full rotation cycle every core is
    gated at some point and runs at some point (§4.2.2)."""
    strategy, _, _ = _strategy(window_model, ControlDecision(active_cores=active))
    gated, ran = set(), set()
    for _ in range(50):
        _, outcome = _step(strategy)
        running = set(_running(outcome))
        ran |= running
        gated |= {0, 1, 2, 3} - running
    assert gated == ran == {0, 1, 2, 3}


@pytest.mark.parametrize("interval_s", [0.05, 0.1, 0.3])
def test_rotation_advances_once_per_rotation_interval(window_model, interval_s):
    """The rotation offset moves after ``rotation_interval_s`` of
    windows (one window more where the summed window lengths fall a
    rounding step short of it)."""
    strategy, _, _ = _strategy(
        window_model, ControlDecision(active_cores=2),
        rotation_interval_s=interval_s,
    )
    offsets = [strategy.window(NO_ENGINE)[2] for _ in range(200)]
    changes = [i for i in range(1, len(offsets)) if offsets[i] != offsets[i - 1]]
    gaps = {b - a for a, b in zip(changes, changes[1:])}
    windows = round(interval_s / DT)
    assert gaps and gaps <= {windows, windows + 1}


def test_rotation_offset_stays_below_the_occupied_count(window_model):
    strategy, _, _ = _strategy(window_model, ControlDecision(active_cores=3))
    offsets = {strategy.window(NO_ENGINE)[2] for _ in range(100)}
    assert offsets == {0, 1, 2, 3}


# -- the DVFS ladder --------------------------------------------------------------


@pytest.mark.parametrize("level", range(STOPPED))
def test_dvfs_level_sets_the_evaluated_frequency(window_model, level):
    strategy, _, model = _strategy(window_model, ControlDecision(dvfs_level=level))
    _step(strategy)
    [call] = model.calls
    assert call["frequency_hz"] == POINTS[level].frequency_hz
    if level == 0:
        assert call["frequency_hz"] == 3.2e9


def test_slower_dvfs_levels_retire_less_per_window(window_model):
    retired = []
    for level in range(STOPPED):
        strategy, _, _ = _strategy(window_model, ControlDecision(dvfs_level=level))
        _, outcome = _step(strategy)
        retired.append(sum(outcome.progress.values()))
    assert retired == sorted(retired, reverse=True)
    assert len(set(retired)) == STOPPED


@pytest.mark.parametrize("level", [STOPPED, STOPPED + 2])
def test_stopped_dvfs_level_runs_nothing_at_standby_power(window_model, level):
    """The level past the ladder is "stopped"; any deeper level is
    priced as stopped too."""
    strategy, _, model = _strategy(window_model, ControlDecision(dvfs_level=level))
    _, outcome = _step(strategy)
    assert outcome.progress is None
    assert model.calls == []
    assert outcome.cpu_power_w == SIMULATED_CPU_POWER.standby_w


# -- memory shutdown, chip power and the shutdown count ------------------------------


def test_memory_off_runs_no_core_at_standby_power(window_model):
    strategy, _, model = _strategy(window_model, ControlDecision(memory_on=False))
    _, outcome = _step(strategy)
    assert outcome.progress is None
    assert model.calls == []
    assert outcome.cpu_power_w == SIMULATED_CPU_POWER.standby_w


@pytest.mark.parametrize("active", range(5))
def test_chip_power_follows_the_running_core_count(window_model, active):
    strategy, _, _ = _strategy(window_model, ControlDecision(active_cores=active))
    _, outcome = _step(strategy)
    assert outcome.cpu_power_w == simulated_chip_power_w(
        active_cores=active, dvfs_level=0, memory_on=True
    )


@pytest.mark.parametrize(
    "decision,shutdown",
    [
        (ControlDecision(), False),
        (ControlDecision(memory_on=False), True),
        (ControlDecision(emergency_level=4), True),
        (ControlDecision(emergency_level=3, active_cores=1), False),
    ],
    ids=["normal", "memory-off", "top-level", "below-top"],
)
def test_shutdown_intervals_count_memory_off_or_top_level(
    window_model, decision, shutdown
):
    strategy, _, _ = _strategy(window_model, decision)
    engine = SteppingEngine(strategy)
    engine.step_windows(7)
    state = engine.checkpoint().to_dict()["strategy_state"]
    assert state["total_intervals"] == 7
    assert state["shutdown_intervals"] == (7 if shutdown else 0)


def test_progress_is_charged_the_dtm_overhead(window_model, monkeypatch):
    monkeypatch.setattr("repro.core.simulator.DTM_OVERHEAD_S", 0.0)
    free, _, _ = _strategy(window_model)
    monkeypatch.setattr("repro.core.simulator.DTM_OVERHEAD_S", 0.001)
    charged, _, _ = _strategy(window_model)
    _, full = _step(free)
    _, less = _step(charged)
    for slot, advanced in full.progress.items():
        assert less.progress[slot] == pytest.approx(advanced * 0.9)


# -- idle bursts and the window key ------------------------------------------------


def test_idle_burst_windows_run_nothing(window_model):
    """Duty cycle 0.5 over 100 ms: five windows run, five idle."""
    strategy, _, _ = _strategy(window_model, duty_cycle=0.5, duty_period_s=0.1)
    pattern = []
    for _ in range(20):
        key, outcome = _step(strategy)
        assert key[1] == (outcome.progress is None)
        pattern.append(outcome.progress is not None)
    assert pattern == ([True] * 5 + [False] * 5) * 2


def test_continuous_batch_never_idles(window_model):
    strategy, _, _ = _strategy(window_model)
    assert not any(strategy.window(NO_ENGINE)[1] for _ in range(50))


def test_window_key_is_decision_index_burst_flag_and_offset(window_model):
    strategy, policy, _ = _strategy(window_model)
    policy.decision = ControlDecision(active_cores=2, index=7)
    key = strategy.window(NO_ENGINE)
    assert key[0] == 7
    assert [type(part) for part in key] == [int, bool, int]


def test_equal_keys_give_equal_outcomes(window_model):
    """The outcome is a pure function of the key while the occupied
    slots stand, which is what lets the engine cache it."""
    strategy, _, _ = _strategy(window_model, ControlDecision(active_cores=2))
    seen = {}
    for _ in range(60):
        key, outcome = _step(strategy)
        if key in seen:
            assert outcome == seen[key]
        seen[key] = outcome
    assert len(seen) < 60


# -- energy accumulated by the engine -------------------------------------------------


def _engine(window_model, decision=ControlDecision(), **config):
    strategy, _, _ = _strategy(window_model, decision, **config)
    return SteppingEngine(strategy)


@pytest.mark.parametrize(
    "decision",
    [
        ControlDecision(),
        ControlDecision(active_cores=1),
        ControlDecision(dvfs_level=STOPPED),
        ControlDecision(memory_on=False),
    ],
    ids=["full", "one-core", "stopped", "memory-off"],
)
def test_cpu_energy_is_chip_power_times_time(window_model, decision):
    engine = _engine(window_model, decision)
    engine.step_windows(50)
    power = simulated_chip_power_w(
        active_cores=decision.active_cores if decision.memory_on else 0,
        dvfs_level=min(decision.dvfs_level, STOPPED),
        memory_on=decision.memory_on,
    )
    assert engine.cpu_energy_j == pytest.approx(50 * DT * power)


def test_memory_energy_sums_each_window_sample(window_model):
    engine = _engine(window_model)
    expected = 0.0
    for _ in range(40):
        engine.step_window()
        expected += engine.sample.memory_power_w * DT
    assert engine.memory_energy_j == expected
    assert expected > 0.0


def test_energies_never_decrease(window_model):
    engine = _engine(window_model, ControlDecision(active_cores=2))
    last = (0.0, 0.0)
    for _ in range(30):
        engine.step_window()
        now = (engine.cpu_energy_j, engine.memory_energy_j)
        assert now[0] > last[0] and now[1] > last[1]
        last = now


def test_stopped_windows_draw_memory_energy_but_move_no_bytes(window_model):
    engine = _engine(window_model, ControlDecision(memory_on=False))
    engine.step_windows(20)
    assert engine.traffic_bytes == 0.0
    assert engine.instructions == 0.0
    assert engine.memory_energy_j > 0.0


# -- the level-1 table ------------------------------------------------------------


@pytest.mark.parametrize("policy", [DTMTS, DTMBW, DTMACG, DTMCDVFS])
def test_a_repeated_run_reads_every_window_from_the_level_1_memo(policy):
    """The memo of :class:`WindowModel` is the level-1 table over the
    workload x DTM design space (§4.3.1): a second run of the same cell
    adds no entry and gives the same result."""
    model = WindowModel()
    config = SimulationConfig(mix_name="W1", copies=1, record_trace=False)
    first = TwoLevelSimulator(config, policy(), window_model=model).run()
    entries = model.cache_entries
    assert entries > 0
    second = TwoLevelSimulator(config, policy(), window_model=model).run()
    assert model.cache_entries == entries
    assert second == first
