"""Tests for the CloudFogSystem façade: end-to-end runs and delegation.

Stage-level behaviour is covered next door: ``test_state.py``,
``test_lifecycle.py``, ``test_accounting.py``, ``test_sweep_pipeline.py``.
"""

import numpy as np
import pytest

from repro.core import (
    CloudFogSystem,
    ConnectionKind,
    cdn,
    cloud_only,
    cloudfog_basic,
)
from repro.core.scoring import CDN_COORDINATION_MS
from repro.core.state import SimState
from repro.network.transport import TransportModel

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


@pytest.fixture(scope="module")
def basic_result():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    return system, system.run(days=2)


def test_run_produces_measured_days(basic_result):
    _, result = basic_result
    assert len(result.days) >= 1
    day = result.days[-1]
    assert day.online_players > 0
    assert day.online_players == day.supernode_players + day.cloud_players


def test_sessions_recorded_with_valid_fields(basic_result):
    _, result = basic_result
    assert result.sessions
    for record in result.sessions[:50]:
        assert 0.0 <= record.continuity <= 1.0
        assert record.response_latency_ms > 0
        assert record.server_latency_ms >= 0
        assert record.kind in (ConnectionKind.SUPERNODE, ConnectionKind.CLOUD)


def test_some_players_use_supernodes(basic_result):
    _, result = basic_result
    kinds = {r.kind for r in result.sessions}
    assert ConnectionKind.SUPERNODE in kinds


def test_join_latencies_collected(basic_result):
    _, result = basic_result
    assert result.join_latencies_ms
    assert all(lat > 0 for lat in result.join_latencies_ms)
    assert np.mean(result.join_latencies_ms) < 1000.0  # sub-second joins


def test_supernode_join_latency_low(basic_result):
    _, result = basic_result
    assert result.supernode_join_latencies_ms
    # Supernodes only need to contact the cloud (§4.2).
    assert np.mean(result.supernode_join_latencies_ms) < 500.0


def test_assignment_wall_times_recorded(basic_result):
    _, result = basic_result
    assert result.assignment_wall_times_s
    assert all(t >= 0 for t in result.assignment_wall_times_s)


def test_supernode_loads_respect_capacity(basic_result):
    system, _ = basic_result
    for sn in system.supernode_pool:
        assert sn.load <= sn.capacity


def test_same_seed_reproduces_run():
    a = CloudFogSystem(cloudfog_basic(**SMALL)).run(days=2)
    b = CloudFogSystem(cloudfog_basic(**SMALL)).run(days=2)
    assert a.mean_response_latency_ms == b.mean_response_latency_ms
    assert a.mean_continuity == b.mean_continuity
    assert a.mean_cloud_bandwidth_mbps == b.mean_cloud_bandwidth_mbps


def test_cloud_mode_never_uses_supernodes():
    result = CloudFogSystem(cloud_only(num_players=100, seed=3)).run(days=2)
    assert result.supernode_coverage == 0.0
    assert all(r.kind is ConnectionKind.CLOUD for r in result.sessions)


def test_cdn_mode_uses_cdn_and_cloud():
    result = CloudFogSystem(cdn(10, num_players=150, seed=3)).run(days=2)
    kinds = {r.kind for r in result.sessions}
    assert ConnectionKind.CDN in kinds
    assert ConnectionKind.SUPERNODE not in kinds


def test_cdn_server_latency_is_coordination_penalty():
    result = CloudFogSystem(cdn(10, num_players=100, seed=3)).run(days=2)
    cdn_sessions = [r for r in result.sessions
                    if r.kind is ConnectionKind.CDN]
    assert cdn_sessions
    assert all(r.server_latency_ms == CDN_COORDINATION_MS
               for r in cdn_sessions)


def test_cloud_bandwidth_higher_without_fog():
    fog = CloudFogSystem(cloudfog_basic(**SMALL)).run(days=2)
    bare = CloudFogSystem(cloud_only(num_players=150, seed=3)).run(days=2)
    assert bare.mean_cloud_bandwidth_mbps > fog.mean_cloud_bandwidth_mbps


def test_reputation_accumulates_ratings(basic_result):
    system, _ = basic_result
    assert system.ledger.total_ratings() > 0


def test_daily_participants_override():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    system.daily_participants = 30
    result = system.run(days=2)
    assert all(d.online_players <= 30 for d in result.days)


# ----------------------------------------------------------------------
# façade mechanics
# ----------------------------------------------------------------------
def test_facade_exposes_shared_state():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    assert isinstance(system.state, SimState)
    # Public and legacy-private names are live views of the same state,
    # not copies.
    assert system.supernode_pool is system.state.supernode_pool
    assert system._games is system.state.games
    assert system._sticky is system.state.sticky
    assert system._live_ids is system.state.live_ids
    assert system._nearest_dc is system.state.nearest_dc


def test_facade_attribute_writes_reach_state():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    transport = TransportModel(jitter_fraction=0.3)
    system.transport = transport
    assert system.state.transport is transport
    system.daily_participants = 42
    assert system.state.daily_participants == 42
    system._games[7] = "placeholder"
    assert system.state.games[7] == "placeholder"


# ----------------------------------------------------------------------
# module surface (the moved-name deprecation shim is gone)
# ----------------------------------------------------------------------
def test_unknown_attribute_raises():
    from repro.core import system as system_module

    with pytest.raises(AttributeError):
        system_module.no_such_name
