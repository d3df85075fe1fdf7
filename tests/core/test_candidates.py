"""Tests for §3.2.2 candidate supernode lists."""

import numpy as np
import pytest

from repro.core.candidates import CandidateEntry, CandidateManager
from repro.core.lifecycle import migrate


def test_entry_validation():
    with pytest.raises(ValueError):
        CandidateEntry(1, -1.0)


def test_manager_validation():
    with pytest.raises(ValueError):
        CandidateManager(max_entries=0)


def test_remember_ranks_by_delay():
    manager = CandidateManager()
    manager.remember(1, [(10, 30.0), (11, 10.0), (12, 20.0)])
    assert [e.supernode_id for e in manager.candidates(1)] == [11, 12, 10]


def test_remember_updates_delay_in_place():
    manager = CandidateManager()
    manager.remember(1, [(10, 30.0)])
    manager.remember(1, [(10, 5.0)])
    entries = manager.candidates(1)
    assert len(entries) == 1
    assert entries[0].delay_ms == 5.0


def test_remember_caps_list_size():
    manager = CandidateManager(max_entries=3)
    manager.remember(1, [(i, float(i)) for i in range(10)])
    entries = manager.candidates(1)
    assert len(entries) == 3
    assert [e.supernode_id for e in entries] == [0, 1, 2]  # lowest delay


def test_candidates_empty_for_unknown_player():
    assert CandidateManager().candidates(99) == []
    assert CandidateManager().list_size(99) == 0


def test_forget_supernode_drops_everywhere():
    manager = CandidateManager()
    manager.remember(1, [(10, 1.0), (11, 2.0)])
    manager.remember(2, [(10, 3.0)])
    manager.forget_supernode(10)
    assert [e.supernode_id for e in manager.candidates(1)] == [11]
    assert manager.candidates(2) == []


def test_notify_new_supernode_respects_l_max():
    """§3.2.2: add the new supernode only when delay < the player's L_max."""
    manager = CandidateManager()
    added = manager.notify_new_supernode(
        supernode_id=7,
        delay_by_player={1: 20.0, 2: 90.0, 3: 15.0},
        l_max_by_player={1: 38.0, 2: 38.0, 3: 10.0})
    assert added == 1
    assert manager.list_size(1) == 1
    assert manager.list_size(2) == 0  # too far
    assert manager.list_size(3) == 0  # stricter than its delay


def test_notify_ignores_players_without_l_max():
    manager = CandidateManager()
    added = manager.notify_new_supernode(7, {1: 5.0}, {})
    assert added == 0


def test_system_populates_candidate_lists():
    """End-to-end: players accumulate candidate lists while playing."""
    from repro.core import CloudFogSystem, cloudfog_basic
    system = CloudFogSystem(cloudfog_basic(num_players=150,
                                           num_supernodes=12, seed=3))
    system.run(days=2)
    sizes = [system.candidates.list_size(p) for p in range(150)]
    assert max(sizes) > 0
    assert all(s <= system.config.candidate_count for s in sizes)


def test_migration_prefers_own_list_over_cloud():
    """A displaced player with a live remembered candidate reconnects
    without the cloud round trip (latency ~= probe + handshake)."""
    from repro.core import CloudFogSystem, cloudfog_basic
    system = CloudFogSystem(cloudfog_basic(num_players=100,
                                           num_supernodes=10, seed=3))
    rng = np.random.default_rng(0)
    system.run(days=1)
    # Hand-craft: player 0 connected to supernode A, remembers B nearby.
    live = [sn for sn in system.live_supernodes if sn.has_capacity]
    assert len(live) >= 2
    a, b = live[0], live[1]
    a.connect(0)
    system.candidates.remember(0, [(b.supernode_id, 12.0)])
    system.state.games[0] = __import__(
        "repro.workload.games", fromlist=["game_for_level"]).game_for_level(5)
    # Fail only supernode A.
    system.live_supernodes = [sn for sn in system.live_supernodes
                              if sn is not a]
    orphans = a.fail()
    system.directory.rebuild(system.live_supernodes)
    outcome = migrate(system.state, 0, l_max=98.0, rng=rng)
    assert 0 in b.connected
    assert outcome.via == "candidates"
    assert outcome.supernode_id == b.supernode_id
    assert outcome.attempts == 0  # no selection round, no backoff
    # 2 x 12 probe + 10 handshake + 12 connect = 46 ms, no cloud RTT.
    assert outcome.latency_ms == pytest.approx(46.0)
