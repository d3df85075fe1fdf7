"""Integration tests: the paper's headline qualitative claims.

These run the full system at reduced scale and assert the *shape* of the
paper's results — who wins, in which metric — not absolute numbers.
"""

import numpy as np
import pytest

from repro.core import CloudFogSystem, cdn, cloud_only, cloudfog_advanced, cloudfog_basic, sweep

SCALE = dict(num_players=600, seed=11)
N_SUPERNODES = 60


@pytest.fixture(scope="module")
def results():
    """Run all four systems on the identical (paired-seed) workload."""
    out = {}
    out["A"] = CloudFogSystem(
        cloudfog_advanced(num_supernodes=N_SUPERNODES, **SCALE)).run(days=3)
    out["B"] = CloudFogSystem(
        cloudfog_basic(num_supernodes=N_SUPERNODES, **SCALE)).run(days=3)
    out["cloud"] = CloudFogSystem(cloud_only(**SCALE)).run(days=3)
    out["cdn"] = CloudFogSystem(
        cdn(N_SUPERNODES // 2, **SCALE)).run(days=3)
    out["cdn_small"] = CloudFogSystem(cdn(5, **SCALE)).run(days=3)
    return out


def test_fig6_bandwidth_ordering(results):
    """Fig. 6: Cloud > CDN-small > CDN > CloudFog in cloud bandwidth."""
    cloud = results["cloud"].mean_cloud_bandwidth_mbps
    cdn_small = results["cdn_small"].mean_cloud_bandwidth_mbps
    cdn_big = results["cdn"].mean_cloud_bandwidth_mbps
    fog = results["B"].mean_cloud_bandwidth_mbps
    assert cloud > cdn_small > cdn_big > fog


def test_fig6_fog_saves_big(results):
    """CloudFog saves a large factor of cloud bandwidth vs plain cloud."""
    ratio = (results["B"].mean_cloud_bandwidth_mbps
             / results["cloud"].mean_cloud_bandwidth_mbps)
    assert ratio < 0.5


def test_fig7_latency_ordering(results):
    """Fig. 7: Cloud slowest; CloudFog/A fastest of the fog variants."""
    assert (results["cloud"].mean_response_latency_ms
            > results["B"].mean_response_latency_ms)
    assert (results["B"].mean_response_latency_ms
            > results["A"].mean_response_latency_ms)
    assert (results["cloud"].mean_response_latency_ms
            > results["cdn"].mean_response_latency_ms)


def test_fig8_continuity_ordering(results):
    """Fig. 8: Cloud lowest continuity; /A highest; CDN-small < CDN."""
    assert (results["cloud"].mean_continuity
            < results["cdn_small"].mean_continuity)
    assert (results["cdn_small"].mean_continuity
            < results["cdn"].mean_continuity + 0.02)
    assert (results["B"].mean_continuity
            <= results["A"].mean_continuity)
    assert results["cloud"].mean_continuity < results["A"].mean_continuity


def test_fog_covers_substantial_share(results):
    assert results["B"].supernode_coverage > 0.3


def test_satisfaction_ordering(results):
    """Satisfied-player share follows the continuity ordering."""
    assert (results["A"].mean_satisfied_ratio
            > results["cloud"].mean_satisfied_ratio)


def test_fig9_migration_latency_sub_second():
    """Fig. 9: migration ~0.8 s, players resume without restarting."""
    system = CloudFogSystem(
        cloudfog_basic(num_supernodes=N_SUPERNODES, **SCALE))
    rng = np.random.default_rng(0)
    state = system.state
    plans = sweep.sample_plans(state, rng)
    sweep.choose_games(state, plans, rng)
    from repro.core.accounting import RunResult
    from repro.core.lifecycle import attach
    sweep.sweep_day(state, plans, rng, RunResult(), measuring=False)
    player = 0
    for sn in system.live_supernodes:
        if sn.has_capacity:
            attach(state, player, sn)
            player += 1
    latencies = system.fail_supernodes(10, rng)
    assert latencies
    assert 400.0 < float(np.mean(latencies)) < 1500.0
