"""Tests for reputation-based supernode selection (§3.2)."""

import numpy as np
import pytest

from repro.core.columns import SupernodeColumns
from repro.core.entities import Supernode
from repro.core.selection import (
    SupernodeDirectory,
    delay_threshold_ms,
    select_supernode,
)
from repro.network.topology import build_topology
from repro.reputation.ratings import RatingLedger
from repro.reputation.scores import ReputationTable


@pytest.fixture()
def topology():
    return build_topology(np.random.default_rng(0), num_players=50,
                          num_datacenters=2)


def make_supernodes(topology, hosts, capacity=5):
    """One supernode per host, all bound to one columnar store."""
    cols = SupernodeColumns(len(hosts))
    supernodes = []
    for i, h in enumerate(hosts):
        sn = Supernode(supernode_id=i, host_player=h, capacity=capacity,
                       upload_mbps=10.0, access_ms=4.0,
                       x_km=float(topology.player_coords[h, 0]),
                       y_km=float(topology.player_coords[h, 1]))
        sn.bind_columns(cols)
        supernodes.append(sn)
    return supernodes


def test_delay_threshold_subtracts_margin():
    assert delay_threshold_ms(90.0, margin_ms=12.0) == pytest.approx(78.0)
    assert delay_threshold_ms(10.0, margin_ms=12.0) == 5.0  # floored
    with pytest.raises(ValueError):
        delay_threshold_ms(0.0)
    with pytest.raises(ValueError):
        delay_threshold_ms(50.0, margin_ms=-1.0)


def test_directory_candidates_are_nearest_available(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3, 4, 5])
    directory = SupernodeDirectory(topology, supernodes)
    candidates = directory.candidates_for(player=0, count=3)
    assert len(candidates) == 3
    # They must be the 3 closest by geography.
    distances = [topology.player_distance(0, supernodes[i].host_player)
                 for i in range(5)]
    expected = {int(i) for i in np.argsort(distances)[:3]}
    assert {sn.supernode_id for sn in candidates} == expected


def test_directory_skips_full_supernodes(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2], capacity=1)
    supernodes[0].connect()
    directory = SupernodeDirectory(topology, supernodes)
    assert [sn.supernode_id for sn in directory.candidates_for(0, 5)] == [1]


def test_directory_rejects_supernodes_without_one_store(topology):
    """A non-empty set must share one columnar store; the error names
    the first supernode that does not."""
    bound = make_supernodes(topology, hosts=[1, 2, 3])
    unbound = Supernode(supernode_id=7, host_player=4, capacity=5,
                        upload_mbps=10.0, access_ms=4.0)
    with pytest.raises(ValueError, match="supernode 7 is not bound"):
        SupernodeDirectory(topology, [unbound] + bound)
    other = make_supernodes(topology, hosts=[5, 6])
    with pytest.raises(ValueError, match="supernode 1 is not bound"):
        SupernodeDirectory(topology, bound[:1] + other[1:] + bound[1:])
    directory = SupernodeDirectory(topology, bound)
    with pytest.raises(ValueError, match="supernode 7 is not bound"):
        directory.rebuild(bound + [unbound])
    directory.rebuild([])  # Cloud deploys none: empty stays valid
    assert directory.candidates_for(0, 3) == []


def test_directory_count_validation(topology):
    directory = SupernodeDirectory(topology, [])
    with pytest.raises(ValueError):
        directory.candidates_for(0, 0)
    assert directory.candidates_for(0, 3) == []
    assert directory.probe_delays_ms(0, []).shape == (0,)


def test_selection_connects_to_qualified_supernode(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    rng = np.random.default_rng(0)
    outcome = select_supernode(0, directory, l_max_ms=500.0, rng=rng)
    assert outcome.supernode_id is not None
    assert not outcome.used_cloud
    assert supernodes[outcome.supernode_id].load == 1
    assert outcome.join_latency_ms > 0
    assert outcome.downstream_one_way_ms <= 500.0


def test_selection_falls_back_to_cloud_when_all_too_far(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    rng = np.random.default_rng(0)
    outcome = select_supernode(0, directory, l_max_ms=0.001 + 5.0 - 4.999,
                               rng=rng)
    # l_max so small nothing qualifies.
    assert outcome.used_cloud
    assert all(sn.load == 0 for sn in supernodes)


def test_selection_rejects_bad_l_max(topology):
    directory = SupernodeDirectory(topology, [])
    with pytest.raises(ValueError):
        select_supernode(0, directory, l_max_ms=0.0,
                         rng=np.random.default_rng(0))


def test_selection_prefers_high_reputation(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    ledger = RatingLedger()
    # Player 0 had great sessions with supernode 2, bad with the others.
    ledger.add(0, 2, 0.99, day=0)
    ledger.add(0, 0, 0.10, day=0)
    ledger.add(0, 1, 0.10, day=0)
    table = ReputationTable(ledger)
    table.refresh(0, today=0)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               reputation=table)
    assert outcome.supernode_id == 2


def test_selection_random_without_reputation_varies(topology):
    """CloudFog/B picks randomly among qualified candidates."""
    picks = set()
    for seed in range(20):
        supernodes = make_supernodes(topology, hosts=[1, 2, 3])
        directory = SupernodeDirectory(topology, supernodes)
        outcome = select_supernode(0, directory, l_max_ms=500.0,
                                   rng=np.random.default_rng(seed))
        picks.add(outcome.supernode_id)
    assert len(picks) >= 2


def test_sequential_ask_skips_filled_candidate(topology):
    """§3.2.2: a candidate may fill up between cloud answer and connect."""
    supernodes = make_supernodes(topology, hosts=[1, 2], capacity=1)
    directory = SupernodeDirectory(topology, supernodes)
    ledger = RatingLedger()
    ledger.add(0, 0, 0.9, day=0)  # player 0 loves supernode 0
    table = ReputationTable(ledger)
    table.refresh(0, today=0)
    # Fill supernode 0 after the directory snapshot.
    supernodes[0].connect()
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               reputation=table)
    assert outcome.supernode_id == 1


def test_no_capacity_anywhere_falls_back_to_cloud(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2], capacity=1)
    directory = SupernodeDirectory(topology, supernodes)
    for sn in supernodes:
        sn.connect()
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0))
    assert outcome.used_cloud


def test_join_latency_includes_cloud_round_trip(topology):
    supernodes = make_supernodes(topology, hosts=[1])
    directory = SupernodeDirectory(topology, supernodes)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               cloud_rtt_ms=123.0)
    assert outcome.join_latency_ms >= 123.0


def test_directory_rebuild_replaces_set(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    assert len(directory) == 3
    directory.rebuild(supernodes[:1])
    assert len(directory) == 1
    assert [sn.supernode_id for sn in directory.candidates_for(0, 5)] == [0]


@pytest.fixture()
def big_topology():
    return build_topology(np.random.default_rng(3), num_players=200,
                          num_datacenters=3)


def brute_force_nearest(directory, player, count):
    """Reference lookup: distance-sort every available supernode."""
    available = [(float(np.hypot(
        sn.x_km - directory.topology.player_coords[player, 0],
        sn.y_km - directory.topology.player_coords[player, 1])), i)
        for i, sn in enumerate(directory.supernodes) if sn.has_capacity]
    available.sort()
    return [directory.supernodes[i].supernode_id
            for _, i in available[:count]]


def test_lookup_matches_brute_force(big_topology):
    """The directory returns exactly the k nearest available nodes."""
    supernodes = make_supernodes(big_topology, hosts=list(range(0, 120, 2)))
    directory = SupernodeDirectory(big_topology, supernodes)
    for player in range(0, 200, 7):
        for count in (1, 4, 8, 61):
            got = [sn.supernode_id
                   for sn in directory.candidates_for(player, count)]
            assert got == brute_force_nearest(directory, player, count)


def test_lookup_respects_incremental_capacity(big_topology):
    """Filling nodes between lookups changes results without a rebuild."""
    supernodes = make_supernodes(big_topology, hosts=list(range(0, 40, 2)),
                                 capacity=1)
    directory = SupernodeDirectory(big_topology, supernodes)
    first = directory.candidates_for(0, 3)
    for sn in first:
        sn.connect()  # fill the closest three
    second = directory.candidates_for(0, 3)
    assert not set(sn.supernode_id for sn in first) & \
        set(sn.supernode_id for sn in second)
    assert [sn.supernode_id for sn in second] == \
        brute_force_nearest(directory, 0, 3)


def test_rebuild_after_failure_matches_fresh_construction(big_topology):
    """Regression: rebuild() must leave no stale index state behind."""
    supernodes = make_supernodes(big_topology, hosts=list(range(0, 90, 3)))
    directory = SupernodeDirectory(big_topology, supernodes)
    survivors = [sn for i, sn in enumerate(supernodes) if i % 4 != 0]
    directory.rebuild(survivors)
    fresh = SupernodeDirectory(big_topology, survivors)
    assert len(directory) == len(fresh) == len(survivors)
    for player in range(0, 200, 11):
        assert [sn.supernode_id
                for sn in directory.candidates_for(player, 6)] == \
            [sn.supernode_id for sn in fresh.candidates_for(player, 6)]
        assert directory.probe_delays_ms(
            player, survivors[:5]).tolist() == \
            fresh.probe_delays_ms(player, survivors[:5]).tolist()


def test_single_supernode_pool(topology):
    """A one-supernode pool answers every count with that supernode."""
    supernodes = make_supernodes(topology, hosts=[4])
    directory = SupernodeDirectory(topology, supernodes)
    assert [sn.supernode_id
            for sn in directory.candidates_for(0, 8)] == [0]
