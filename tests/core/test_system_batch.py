"""The product session scorer pinned bit-identical to its reference.

:func:`repro.core.scoring.score_sessions_batch` is the only scorer the
pipeline runs; ``tests/helpers/scoring_oracle.py`` keeps the scalar
per-session loop it replaced.  A whole run must produce *identical*
``SessionRecord`` and ``DayMetrics`` lists either way — same seed, same
bits — across every deployment mode, with and without jitter, with and
without cloud compression.  No golden digest covers the Cloud, CDN,
compressed-cloud or heavy-jitter runs, so this is their only check.
"""

import numpy as np
import pytest

from repro.core import config as configs
from repro.core import scoring
from repro.core.accounting import DayMetrics, RunResult, SweepLoads
from repro.core.system import CloudFogSystem
from repro.network.transport import TransportModel

from ..helpers.scoring_oracle import score_sessions_scalar


def run_both(monkeypatch, build, days=2, transport=None):
    """One run with the product scorer, one with the reference loop
    substituted, from identical configs; return both."""

    def run():
        system = CloudFogSystem(build())
        if transport is not None:
            system.transport = transport
        return system.run(days=days)

    reference_days = []

    def reference(*args):
        reference_days.append(args[1])
        return score_sessions_scalar(*args)

    product = run()
    with monkeypatch.context() as patch:
        patch.setattr(scoring, "score_sessions_batch", reference)
        reference_run = run()
    # The substitution must really reach the pipeline, or the
    # comparison would hold vacuously.
    assert reference_days == list(range(days))
    return product, reference_run


MODES = {
    "cloudfog-basic": lambda: configs.cloudfog_basic(
        num_players=250, num_supernodes=16, seed=7),
    "cloudfog-advanced": lambda: configs.cloudfog_advanced(
        num_players=250, num_supernodes=16, seed=7),
    "cloud": lambda: configs.cloud_only(num_players=250, seed=7),
    "cloud-compressed": lambda: configs.cloud_compressed(
        num_players=250, seed=7),
    "cdn": lambda: configs.cdn(4, num_players=250, seed=7),
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_batch_run_bit_identical_to_scalar(monkeypatch, mode):
    batch, scalar = run_both(monkeypatch, MODES[mode])
    assert batch.sessions == scalar.sessions  # frozen dataclass ==
    assert batch.days == scalar.days


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_batch_identical_without_and_with_heavy_jitter(monkeypatch, jitter):
    transport = TransportModel(jitter_fraction=jitter)
    batch, scalar = run_both(monkeypatch, MODES["cloudfog-advanced"],
                             transport=transport)
    assert batch.sessions == scalar.sessions
    assert batch.days == scalar.days


def test_sweep_loads_rows_track_live_supernodes():
    system = CloudFogSystem(configs.cloudfog_basic(
        num_players=100, num_supernodes=8, seed=1))
    hours = system.config.schedule.hours_per_day
    loads = SweepLoads.for_supernodes(system.live_supernodes, hours)
    assert loads.counts.shape == (len(system.live_supernodes), hours + 2)
    assert loads.rates.shape == loads.counts.shape
    for row, sn in enumerate(system.live_supernodes):
        assert loads.row(sn.supernode_id) == row
    assert loads.row(10_000) is None


def test_fail_supernodes_keeps_live_ids_consistent():
    system = CloudFogSystem(configs.cloudfog_basic(
        num_players=150, num_supernodes=10, seed=3))
    system.run(days=1)
    before = {sn.supernode_id for sn in system.live_supernodes}
    assert system.state.live_ids == before
    system.fail_supernodes(3, np.random.default_rng(0))
    after = {sn.supernode_id for sn in system.live_supernodes}
    assert len(after) == len(before) - 3
    assert system.state.live_ids == after  # was left stale before the fix
    # The directory only ever serves live supernodes afterwards.
    for player in range(0, 150, 30):
        for sn in system.directory.candidates_for(player, 5):
            assert sn.supernode_id in after


def make_day(day, continuity, online=100, supernode=40):
    return DayMetrics(day=day, online_players=online,
                      supernode_players=supernode,
                      cloud_players=online - supernode,
                      cloud_bandwidth_mbps=500.0 + day,
                      mean_response_latency_ms=80.0 + day,
                      mean_server_latency_ms=10.0,
                      mean_continuity=continuity,
                      satisfied_ratio=continuity)


def test_run_result_aggregate_cache_invalidates_on_new_days():
    result = RunResult(days=[make_day(0, 0.8)])
    assert result.mean_continuity == 0.8
    assert result._aggregate_cache is not None
    assert result._aggregate_cache["num_days"] == 1
    # A later measured day must refresh the cached aggregates.
    result.days.append(make_day(1, 0.6))
    assert result.mean_continuity == float(np.mean([0.8, 0.6]))
    assert result._aggregate_cache["num_days"] == 2
    assert result.supernode_coverage == 80 / 200


def test_run_result_mean_properties_match_recomputation():
    system = CloudFogSystem(configs.cloudfog_basic(
        num_players=120, num_supernodes=8, seed=5))
    result = system.run(days=2)
    assert result.mean_response_latency_ms == float(np.mean(
        [d.mean_response_latency_ms for d in result.days]))
    assert result.mean_cloud_bandwidth_mbps == float(np.mean(
        [d.cloud_bandwidth_mbps for d in result.days]))
    assert result.mean_satisfied_ratio == float(np.mean(
        [d.satisfied_ratio for d in result.days]))
    online = sum(d.online_players for d in result.days)
    served = sum(d.supernode_players for d in result.days)
    assert result.supernode_coverage == served / online


def test_empty_run_result_raises():
    with pytest.raises(ValueError):
        RunResult().mean_continuity
