"""The session table is the session: invariants of its columns.

Unit tests cover :class:`~repro.core.state.SessionTable`'s writers
(``add``, ``pop``, ``fall_back_to_cloud``) and its iteration order;
the property-style test appends a verifier stage to
:data:`~repro.core.sweep.SUBCYCLE_STAGES` and replays seed-randomised
chaos runs — joins, migrations, crashes, degradations, partitions,
update loss, departures — asserting after *every* subcycle that the
columns describe a consistent world: membership, kind codes, play
windows, and the supernodes' own connection sets all agree.
"""

import math

import numpy as np
import pytest

from repro.core import CloudFogSystem, sweep
from repro.core.columns import KIND_CLOUD, KIND_SUPERNODE
from repro.core.entities import ConnectionKind, Supernode
from repro.core.state import Session, SessionTable
from repro.faults.plan import AdmissionPolicy, FaultPlan
from repro.workload.churn import PlayerDayPlan

from ..faults.regen_golden import SCENARIOS


def make_session(player=3, kind=ConnectionKind.SUPERNODE, supernode_id=5):
    plan = PlayerDayPlan(player=player, start_subcycle=2,
                         duration_hours=3.0)
    return Session(plan, kind, supernode_id, 12.5, 30.0, 95.0)


# -- unit: the table's writers and order --------------------------------
def test_add_writes_the_full_row():
    table = SessionTable(8)
    table.add(make_session(), start=2, end=4)
    cols = table.columns
    assert cols.active[3] == 1
    assert cols.supernode_id[3] == 5
    assert cols.kind[3] == KIND_SUPERNODE
    assert cols.latency_ms[3] == 12.5
    assert cols.upstream_ms[3] == 30.0
    assert cols.start_subcycle[3] == 2
    assert cols.end_subcycle[3] == 4
    assert cols.join_latency_ms[3] == 95.0


def test_add_overwrites_dead_garbage_from_an_earlier_session():
    table = SessionTable(8)
    table.add(make_session(), start=1, end=9)
    table.fall_back_to_cloud(3)
    cols = table.columns
    assert cols.kind[3] == KIND_CLOUD
    assert cols.supernode_id[3] == -1
    assert cols.latency_ms[3] == cols.upstream_ms[3] == 30.0
    table.pop(3)

    fresh = Session(PlayerDayPlan(player=3, start_subcycle=5,
                                  duration_hours=1.0),
                    ConnectionKind.CDN, None, 40.0, 41.0, None)
    table.add(fresh, start=5, end=5)
    assert cols.active[3] == 1
    assert cols.supernode_id[3] == -1
    assert cols.latency_ms[3] == 40.0
    assert cols.upstream_ms[3] == 41.0
    assert (cols.start_subcycle[3], cols.end_subcycle[3]) == (5, 5)
    assert math.isnan(cols.join_latency_ms[3])


def test_table_pop_clears_active():
    table = SessionTable(8)
    table.add(make_session(), start=2, end=4)
    assert table.columns.active[3] == 1
    table.pop(3)
    assert table.columns.active[3] == 0
    assert 3 not in table and len(table) == 0
    table.pop(3)                            # absent: a no-op
    assert len(table) == 0


def test_readded_player_iterates_last():
    """Scoring walks the table in insertion order, so a session that
    left and re-joined scores after everyone already in the table."""
    table = SessionTable(8)
    for player in (4, 1, 6):
        table.add(make_session(player=player), start=2, end=4)
    table.pop(4)
    table.add(make_session(player=4), start=3, end=4)
    assert list(table) == [1, 6, 4]
    assert np.flatnonzero(table.columns.active).tolist() == [1, 4, 6]


def test_disconnect_many_matches_sequential_disconnects():
    def build():
        sn = Supernode(supernode_id=0, host_player=99, capacity=8,
                       upload_mbps=30.0, access_ms=5.0)
        for player in range(8):
            sn.connect(player)
        return sn

    one, many = build(), build()
    for player in (1, 4, 6):
        one.disconnect(player)
    many.disconnect_many([1, 4, 6])
    assert one.connected == many.connected
    assert one.has_capacity == many.has_capacity


# -- property: the columns stay consistent through chaotic runs ----------
def _assert_columns_consistent(state, ctx, plans):
    table = ctx.sessions
    cols = table.columns
    subcycle = ctx.subcycle
    hours = ctx.hours
    members = list(table)
    assert set(np.flatnonzero(cols.active == 1).tolist()) == set(members)
    serving = set()
    for player in members:
        sid = int(cols.supernode_id[player])
        assert (sid >= 0) == (cols.kind[player] == KIND_SUPERNODE)
        # The sweep's window formula, recomputed from the plan.
        plan = plans[player]
        start = min(plan.start_subcycle, hours)
        end = min(hours, start + math.ceil(plan.duration_hours) - 1)
        assert cols.start_subcycle[player] == start <= subcycle
        assert cols.end_subcycle[player] == end
        if sid >= 0 and start <= subcycle <= end:
            serving.add((sid, player))
    connected = {(sn.supernode_id, player)
                 for sn in state.live_supernodes
                 for player in sn.connected}
    assert serving == connected


@pytest.mark.parametrize("admission", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_columns_track_sessions_through_chaos(monkeypatch, seed,
                                              admission):
    plans = {}
    checked = []

    def record_plans(state, ctx):
        # Runs just before arrivals, after any scenario stage queued
        # extra joiners, so every plan that joins is seen here.
        if ctx.subcycle == 1:
            plans.clear()
        for plan in ctx.starts.get(ctx.subcycle, ()):
            plans[plan.player] = plan

    def verifier_stage(state, ctx):
        _assert_columns_consistent(state, ctx, plans)
        checked.append(len(ctx.sessions))

    stages = list(sweep.SUBCYCLE_STAGES)
    stages.insert(stages.index(sweep.stage_arrivals), record_plans)
    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        tuple(stages) + (verifier_stage,))
    plan = FaultPlan.poisson(rate_per_day=4.0, days=2, seed=seed + 100)
    if admission:
        # A tight cloud cap sheds joins mid-cohort: the arrival stage
        # then commits only the admitted sessions.
        plan = plan.with_(admission=AdmissionPolicy(max_cloud_sessions=5))
    config = SCENARIOS["cloudfog_advanced"].with_(seed=seed,
                                                  fault_plan=plan)
    result = CloudFogSystem(config).run(days=2)
    assert result.days  # the run actually measured something
    assert any(checked)  # the verifier saw live sessions
    assert (result.faults.joins_shed > 0) == admission
