"""Arrivals over the cached pool ranking equal the full per-plan scan.

A columnar :meth:`SupernodeDirectory.candidates_for` first walks the
player's cached pool ranking against the live availability bytes and
takes the full pass only when the walk cannot tell; ``stage_arrivals``
then joins plan by plan and commits the cohort's load spans in one
batch.  The audit below checks, at *every* lookup of a run (joins and
migrations), that the candidate ids equal a brute-force reference scan
of the same live state — probe delays follow from the ids through the
one ``probe_delays_ms`` — and each whole run is compared with a
reference stage that joins and commits one plan at a time.  The cases
are the ones where the shortcut's preconditions are tightest: a
saturated pool, exact distance ties in a reversed directory, a
directory out of pool-id order after healing, admission control,
CloudFog/B's random pick and a flash crowd.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloudFogSystem, sweep
from repro.core.columns import SupernodeColumns
from repro.core.config import cloudfog_advanced, cloudfog_basic
from repro.core.entities import ConnectionKind, Supernode
from repro.core.lifecycle import admit_join, join
from repro.core.selection import SupernodeDirectory
from repro.faults.plan import (AdmissionPolicy, FaultEvent, FaultPlan,
                               HealingPolicy)
from repro.network.topology import build_topology
from repro.scenarios.hooks import FlashCrowdStage

from ..helpers.golden import run_result_digest

DAYS = 2


def reference_scan(directory, player, count):
    """The ``count`` nearest available listed supernodes, ordered by
    (distance², directory index) — the scan's contract, by brute force."""
    px = float(directory.topology.player_coords[player, 0])
    py = float(directory.topology.player_coords[player, 1])
    ranked = []
    for index, sn in enumerate(directory.supernodes):
        if sn.has_capacity:
            dx = sn.x_km - px
            dy = sn.y_km - py
            ranked.append((dx * dx + dy * dy, index))
    ranked.sort()
    return [directory.supernodes[index].supernode_id
            for _, index in ranked[:count]]


class LookupAudit:
    """Checks every candidate lookup of a run against the reference."""

    def __init__(self, monkeypatch):
        self.lookups = 0
        self.fallbacks = 0
        self.tied = 0
        self.unordered = 0
        self.largest = 0
        lookup = SupernodeDirectory.candidates_for
        walk = SupernodeDirectory._ranked_candidates
        arrivals = sweep.stage_arrivals
        audit = self

        def audited_lookup(directory, player, count):
            candidates = lookup(directory, player, count)
            assert ([sn.supernode_id for sn in candidates]
                    == reference_scan(directory, player, count))
            audit.lookups += 1
            audit.tied += bool(directory._pool_ranking(count)[1][player])
            audit.unordered += bool(np.any(np.diff(directory._gids_np) < 0))
            return candidates

        def counted_walk(directory, player, count):
            found = walk(directory, player, count)
            audit.fallbacks += found is None
            return found

        def sized_arrivals(state, ctx):
            audit.largest = max(audit.largest,
                                len(ctx.starts.get(ctx.subcycle, ())))
            arrivals(state, ctx)

        monkeypatch.setattr(SupernodeDirectory, "candidates_for",
                            audited_lookup)
        monkeypatch.setattr(SupernodeDirectory, "_ranked_candidates",
                            counted_walk)
        monkeypatch.setattr(sweep, "SUBCYCLE_STAGES", tuple(
            sized_arrivals if stage is arrivals else stage
            for stage in sweep.SUBCYCLE_STAGES))


def per_plan_arrivals(state, ctx) -> None:
    """Reference arrivals stage: join and commit one plan at a time."""
    subcycle = ctx.subcycle
    for plan in ctx.starts.pop(subcycle, []):
        session = join(state, plan, ctx.rng)
        if ctx.admission is not None and not admit_join(
                state, session, ctx.admission, subcycle, ctx.cloud_count):
            ctx.result.faults.joins_shed += 1
            continue
        end = min(ctx.hours, subcycle + int(np.ceil(plan.duration_hours)) - 1)
        rate = state.games[plan.player].stream_rate_mbps
        ctx.sessions.add(session, subcycle, end)
        span = slice(subcycle, end + 1)
        if session.supernode_id is not None:
            row = ctx.loads.row(session.supernode_id)
            ctx.loads.counts[row, span] += 1
            ctx.loads.rates[row, span] += rate
        elif session.kind is ConnectionKind.CLOUD:
            if state.compression is not None:
                rate = state.compression.compressed_mbps(rate)
            ctx.cloud_rate[span] += rate
            if ctx.cloud_count is not None:
                ctx.cloud_count[span] += 1
        if ctx.measuring and session.join_latency_ms is not None:
            ctx.result.join_latencies_ms.append(session.join_latency_ms)


def _tie_coordinates(state) -> None:
    """Co-locate two supernode pairs: exact distance ties for every
    player whose ranking reaches one of them.  The directory lists the
    pool in reverse, so the scan's tie-break (directory index) and the
    ranking's (pool id) disagree."""
    pool = state.supernode_pool
    cols = state.supernode_columns
    for source in (0, len(pool) // 2):
        target = pool[source + 1]
        target.x_km = pool[source].x_km
        target.y_km = pool[source].y_km
        cols.x_km[target.supernode_id] = target.x_km
        cols.y_km[target.supernode_id] = target.y_km
    state.live_supernodes.reverse()
    state.directory.rebuild(state.live_supernodes)


def _flash_crowd(state) -> None:
    """Half the population plays; 150 idle players join at once."""
    state.daily_participants = 200
    state.scenario_stages = (
        FlashCrowdStage(day=1, subcycle=20, players=150,
                        duration_hours=3.0),)


_PARTITION_PLAN = FaultPlan(
    events=(
        FaultEvent(day=0, subcycle=18, kind="partition",
                   duration_subcycles=3),
        FaultEvent(day=1, subcycle=12, kind="crash", count=2),
    ),
    admission=AdmissionPolicy(max_cloud_sessions=12,
                              shed_during_partition=True))

_HEALING_PLAN = FaultPlan(
    events=tuple(
        FaultEvent(day=day, subcycle=subcycle, kind="regional_outage",
                   datacenter=datacenter, radius_km=2_000.0)
        for day, subcycle, datacenter in ((0, 9, 0), (0, 15, 1),
                                          (1, 10, 2), (1, 16, 3))),
    healing=HealingPolicy(delay_subcycles=2, replacement_share=1.0))

#: name -> (config, state configurator, (audit counter, its minimum))
CASES = {
    # Width 8 x 2 = 16 of ~50 pool rows and 3 slots per supernode: the
    # prefix runs out of free supernodes at the evening peak.
    "saturated": (cloudfog_advanced(
        num_players=500, num_supernodes=40, seed=5, candidate_count=2,
        supernode_capacity_override=3), None, ("fallbacks", 1)),
    "tied_coordinates": (cloudfog_advanced(
        num_players=600, num_supernodes=60, seed=7, candidate_count=2),
        _tie_coordinates, ("tied", 1)),
    "healed_directory": (cloudfog_advanced(
        num_players=300, num_supernodes=16, seed=3,
        fault_plan=_HEALING_PLAN), None, ("unordered", 1)),
    "admission": (cloudfog_advanced(
        num_players=300, num_supernodes=12, seed=11,
        fault_plan=_PARTITION_PLAN), None, None),
    "random_pick": (cloudfog_basic(
        num_players=250, num_supernodes=12, seed=7), None, None),
    "flash_crowd": (cloudfog_advanced(
        num_players=400, num_supernodes=14, seed=2), _flash_crowd,
        ("largest", 150)),
}


def _run(config, configure):
    system = CloudFogSystem(config)
    if configure is not None:
        configure(system.state)
    return system.run(days=DAYS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_lookup_equals_the_reference_scan(monkeypatch, name):
    config, configure, expect = CASES[name]
    audit = LookupAudit(monkeypatch)
    result = _run(config, configure)
    assert audit.lookups > 0
    assert audit.fallbacks < audit.lookups  # the ranking did the work
    if expect is not None:
        counter, minimum = expect
        assert getattr(audit, counter) >= minimum, counter
    if name == "admission":
        assert result.faults.joins_shed > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_commit_equals_the_per_plan_reference(monkeypatch, name):
    config, configure, _ = CASES[name]
    batched = run_result_digest(_run(config, configure))
    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES", tuple(
        per_plan_arrivals if stage is sweep.stage_arrivals else stage
        for stage in sweep.SUBCYCLE_STAGES))
    assert run_result_digest(_run(config, configure)) == batched


def _grid_directory(data, players: int, pool: int):
    """A columnar directory over integer grid points: exact distance
    ties are common.  It lists a random subset of the pool in random
    order; some supernodes start full."""
    grid = st.integers(0, 4)
    topology = build_topology(np.random.default_rng(0),
                              num_players=players, num_datacenters=1)
    topology.player_coords[:] = np.array(data.draw(st.lists(
        st.tuples(grid, grid), min_size=players, max_size=players),
        label="player grid"), dtype=np.float64)
    spots = data.draw(st.lists(st.tuples(grid, grid), min_size=pool,
                               max_size=pool), label="supernode grid")
    cols = SupernodeColumns(pool)
    supernodes = []
    for sid, (x, y) in enumerate(spots):
        sn = Supernode(supernode_id=sid, host_player=0,
                       capacity=data.draw(st.integers(1, 2)),
                       upload_mbps=10.0, access_ms=float(sid % 3),
                       x_km=float(x), y_km=float(y))
        sn.bind_columns(cols)
        if data.draw(st.booleans(), label="preloaded"):
            sn.connect(500 + sid)
        supernodes.append(sn)
    listed = data.draw(st.permutations(supernodes), label="directory")
    listed = listed[:data.draw(st.integers(1, pool), label="listed")]
    return SupernodeDirectory(topology, listed), supernodes


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_property_lookups_match_the_scan_on_a_tie_heavy_grid(data):
    """Lookups interleaved with joins, leaves and failures — any
    availability change — always equal the reference scan."""
    players = 12
    count = data.draw(st.integers(1, 3), label="count")
    directory, supernodes = _grid_directory(
        data, players, data.draw(st.integers(1, 30), label="pool"))
    for step in range(data.draw(st.integers(1, 20), label="lookups")):
        player = data.draw(st.integers(0, players - 1), label="player")
        candidates = directory.candidates_for(player, count)
        assert ([sn.supernode_id for sn in candidates]
                == reference_scan(directory, player, count))
        action = data.draw(st.sampled_from(("join", "leave", "fail")),
                           label="action")
        if action == "join" and candidates:
            candidates[0].connect(1_000 + step)
        elif action == "leave":
            sn = data.draw(st.sampled_from(supernodes), label="left")
            sn.disconnect_many(list(sn.connected))
        elif action == "fail":
            data.draw(st.sampled_from(supernodes), label="failed").fail()


def test_tie_just_past_the_prefix_takes_the_scan():
    """Seven full supernodes at distinct distances, then six free ones
    tied at the same distance: the prefix (width 8 for one candidate)
    ends inside the tie, so only the scan knows which tied supernode
    the directory lists first."""
    topology = build_topology(np.random.default_rng(0), num_players=1,
                              num_datacenters=1)
    topology.player_coords[:] = 0.0
    near = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)]
    tied = [(3, 1), (1, 3), (-3, 1), (-1, 3), (3, -1), (1, -3)]
    cols = SupernodeColumns(len(near) + len(tied))
    supernodes = []
    for sid, (x, y) in enumerate(near + tied):
        sn = Supernode(supernode_id=sid, host_player=0, capacity=1,
                       upload_mbps=10.0, access_ms=1.0, x_km=float(x),
                       y_km=float(y))
        sn.bind_columns(cols)
        if sid < len(near):
            sn.connect(100 + sid)
        supernodes.append(sn)
    directory = SupernodeDirectory(topology, supernodes[::-1])
    candidates = directory.candidates_for(0, 1)
    assert [sn.supernode_id for sn in candidates] == [len(supernodes) - 1]
