"""Tests for the staged subcycle pipeline in repro.core.sweep:
stage ordering, state handoff through SweepContext, and the play
window the sweep commits."""

import numpy as np

from repro.core import cloudfog_basic
from repro.core import sweep
from repro.core.accounting import RunResult
from repro.core.state import SimState
from repro.workload.churn import PlayerDayPlan

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


def _prepared_state(seed=3):
    state = SimState(cloudfog_basic(num_players=SMALL["num_players"],
                                    num_supernodes=SMALL["num_supernodes"],
                                    seed=seed))
    rng = np.random.default_rng(0)
    plans = sweep.sample_plans(state, rng)
    sweep.choose_games(state, plans, rng)
    return state, plans


def test_stages_run_in_order_every_subcycle(monkeypatch):
    """sweep_day reads SUBCYCLE_STAGES dynamically and runs the tuple
    in order at each of the day's subcycles."""
    calls = []

    def tracked(name, stage):
        def wrapper(state, ctx):
            calls.append((name, ctx.subcycle))
            return stage(state, ctx)
        return wrapper

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES", tuple(
        tracked(stage.__name__, stage)
        for stage in sweep.SUBCYCLE_STAGES))
    state, plans = _prepared_state()
    rng = np.random.default_rng(1)
    sweep.sweep_day(state, plans, rng, RunResult(), measuring=False)

    hours = state.config.schedule.hours_per_day
    expected = [(stage.__name__, subcycle)
                for subcycle in range(1, hours + 1)
                for stage in (sweep.stage_departures, sweep.stage_faults,
                              sweep.stage_scenario, sweep.stage_arrivals)]
    assert calls == expected


def test_stages_share_one_context(monkeypatch):
    """Every stage of a sweep receives the same mutable SweepContext."""
    seen = []

    def spy(state, ctx):
        seen.append(ctx)

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        (spy,) + sweep.SUBCYCLE_STAGES)
    state, plans = _prepared_state()
    rng = np.random.default_rng(1)
    sessions, loads, cloud_rate = sweep.sweep_day(
        state, plans, rng, RunResult(), measuring=False)
    assert len(set(map(id, seen))) == 1
    ctx = seen[0]
    # The returned structures are the context's own, handed through.
    assert ctx.sessions is sessions
    assert ctx.loads is loads
    assert ctx.cloud_rate is cloud_rate


def test_arrivals_populate_sessions_and_loads():
    state, plans = _prepared_state()
    rng = np.random.default_rng(1)
    sessions, loads, cloud_rate = sweep.sweep_day(
        state, plans, rng, RunResult(), measuring=False)
    assert len(sessions) == len(plans)
    # Committed load: supernode rows and the cloud line cover all
    # streaming sessions.
    assert loads.counts.max() > 0
    assert cloud_rate.max() > 0
    # Day's end disconnects everything.
    for sn in state.supernode_pool:
        assert sn.load == 0


def test_fault_stage_inert_without_plan(monkeypatch):
    """No FaultPlan → the fault stage never gets an RNG to act with."""
    contexts = []

    def spy(state, ctx):
        contexts.append(ctx)

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        sweep.SUBCYCLE_STAGES + (spy,))
    state, plans = _prepared_state()
    sweep.sweep_day(state, plans, np.random.default_rng(1), RunResult(),
                    measuring=False)
    assert all(ctx.fault_rng is None for ctx in contexts)


def test_session_window_clamps_to_day():
    """The sweep's play window: join at ``min(start, hours)``, play
    ``ceil(duration)`` subcycles, end at the day boundary."""
    state, _ = _prepared_state()
    windows = {0: (3, 2.0), 1: (3, 2.5), 2: (30, 4.0), 3: (22, 9.0)}
    plans = [PlayerDayPlan(player=player, start_subcycle=start,
                           duration_hours=duration)
             for player, (start, duration) in windows.items()]
    sessions, _, _ = sweep.sweep_day(state, plans, np.random.default_rng(1),
                                     RunResult(), measuring=False)
    cols = sessions.columns
    assert {player: (int(cols.start_subcycle[player]),
                     int(cols.end_subcycle[player]))
            for player in sessions} == {
        0: (3, 4), 1: (3, 5),
        2: (24, 24),   # starts past the day clamp to the last subcycle
        3: (22, 24),   # cycles do not wrap
    }


def test_run_day_appends_measured_metrics():
    state, _ = _prepared_state()
    result = RunResult()
    sweep.run_day(state, 0, result, measuring=False)
    assert result.days == []
    sweep.run_day(state, 1, result, measuring=True)
    assert len(result.days) == 1
    assert result.days[0].day == 1
    assert result.sessions
