"""Tests for repro.core.lifecycle: joins, failures and the §3.2.2
migration ladder."""

import numpy as np
import pytest

from repro.core import CloudFogSystem, ConnectionKind, cloud_only, cloudfog_basic, sweep
from repro.core.accounting import RunResult
from repro.core.lifecycle import (
    attach,
    fail_supernodes,
    fog_availability,
    join,
    take_offline,
)
from repro.core.state import SimState
from repro.workload.churn import PlayerDayPlan

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


def test_join_connects_and_counts():
    state = SimState(cloudfog_basic(**SMALL))
    rng = np.random.default_rng(0)
    plans = [PlayerDayPlan(player=p, start_subcycle=1, duration_hours=2.0)
             for p in range(40)]
    from repro.core.sweep import choose_games

    choose_games(state, plans, rng)
    kinds = set()
    for plan in plans:
        session = join(state, plan, rng)
        kinds.add(session.kind)
        assert session.plan is plan
    assert ConnectionKind.SUPERNODE in kinds


def test_take_offline_updates_directory_and_availability():
    state = SimState(cloudfog_basic(**SMALL))
    live_before = len(state.live_supernodes)
    victim = state.live_supernodes[0]
    assert take_offline(state, [victim]) == []  # nobody was on it
    assert not victim.online and victim.load == 0
    assert len(state.live_supernodes) == live_before - 1
    assert victim.supernode_id not in state.live_ids
    assert fog_availability(state) == pytest.approx(
        (live_before - 1) / state.deployed_count)


def test_take_offline_orders_orphans_by_failed_then_player():
    """The orphans of one fault event: supernodes in ``failed`` order,
    players ascending within each, whatever order they attached in."""
    state = SimState(cloudfog_basic(**SMALL))
    a, b, c = [sn for sn in state.live_supernodes if sn.capacity >= 3][:3]
    for player, sn in ((9, a), (4, b), (2, a), (7, c), (5, b), (0, a)):
        attach(state, player, sn)
    orphans = take_offline(state, [b, a])
    assert orphans == [(b, 4), (b, 5), (a, 0), (a, 2), (a, 9)]
    assert (a.load, b.load, c.load) == (0, 0, 1)


def test_attach_rejects_a_live_player_and_keeps_the_slot_free():
    state = SimState(cloudfog_basic(**SMALL))
    a, b = state.live_supernodes[:2]
    attach(state, 3, a)
    with pytest.raises(ValueError, match="player 3"):
        attach(state, 3, b)
    assert (a.load, b.load) == (1, 0)
    assert state.sessions.columns.supernode_id[3] == a.supernode_id


def test_fail_supernodes_migrates_players():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    system.run(days=1)
    # Re-create a day's connections so supernodes hold players.
    rng = np.random.default_rng(0)
    state = system.state
    plans = sweep.sample_plans(state, rng)
    sweep.choose_games(state, plans, rng)
    sweep.sweep_day(state, plans, rng, RunResult(), measuring=False)
    # Re-connect one player to every live supernode so any failure
    # displaces someone.
    next_player = 0
    for sn in list(system.live_supernodes):
        if sn.has_capacity:
            attach(state, next_player, sn)
            next_player += 1
    before = len(system.live_supernodes)
    latencies = system.fail_supernodes(before // 2, rng)
    # Survivors have room, so displaced players actually recover.
    assert latencies
    # ~0.8 s migrations: detection dominates, everything under ~2 s.
    assert all(500.0 <= lat <= 2000.0 for lat in latencies)
    assert len(system.live_supernodes) == before - before // 2
    # Conservation: every displacement is recovered, degraded or
    # dropped — nothing is silently folded into the latency list.
    summary = system.fault_outcomes
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.recovered == len(latencies)


def test_fail_supernodes_validation():
    state = SimState(cloudfog_basic(**SMALL))
    with pytest.raises(ValueError):
        fail_supernodes(state, -1, np.random.default_rng(0))
    bare = SimState(cloud_only(num_players=50, seed=1))
    assert fail_supernodes(bare, 2, np.random.default_rng(0)) == []
