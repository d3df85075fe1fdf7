"""Reference session scorer: the per-session loop the product scorer
replaced.

:func:`repro.core.scoring.score_sessions_batch` must reproduce this
loop bit for bit for the same RNG stream.  No golden digest covers the
Cloud, CDN or compressed-cloud modes, or heavy jitter, so comparing
whole runs against this oracle (``tests/core/test_system_batch.py``)
is their only check.  Substitute it for the product scorer with
``monkeypatch.setattr(scoring, "score_sessions_batch",
score_sessions_scalar)``: ``score_sessions`` looks the name up at call
time.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import (
    CLOUD_FLOW_HEADROOM,
    CLOUD_FLOW_SHARE_FLOOR_MBPS,
    SessionRecord,
    cloud_egress_budget,
)
from repro.core.scoring import QOS_DURATION_S, QOS_SAMPLES, server_latency_ms
from repro.core.state import KIND_BY_CODE
from repro.network.latency import PLAYOUT_PROCESSING_MS
from repro.network.transport import PathSpec
from repro.streaming.session import SessionConfig, estimate_continuity

__all__ = ["score_sessions_scalar"]


def score_sessions_scalar(state, day, sessions, loads, cloud_rate,
                          rng) -> list[SessionRecord]:
    """Scalar reference scorer: one estimate call per session.

    Kept from the pre-batch implementation, adapted only to read
    the dense :class:`~repro.core.accounting.SweepLoads` rows instead
    of the old per-supernode dicts, and each session's facts as
    scalar reads of its session-table row instead of object
    attributes — the same values.  It is the ground truth the product
    scorer is pinned against, so it deliberately shares none of the
    batch path's memoisation or column gathers.
    """
    records = []
    budget = cloud_egress_budget(state)
    cols = sessions.columns
    for player in sessions:
        game = state.games[player]
        start = int(cols.start_subcycle[player])
        end = int(cols.end_subcycle[player])
        supernode_id = int(cols.supernode_id[player])
        kind = KIND_BY_CODE[int(cols.kind[player])]
        join_latency_ms = float(cols.join_latency_ms[player])
        if np.isnan(join_latency_ms):
            join_latency_ms = None

        if supernode_id >= 0:
            sn = state.supernode_pool[supernode_id]
            row = loads.row(supernode_id)
            counts = loads.counts[row, start:end + 1]
            rates = loads.rates[row, start:end + 1]
            mean_count = max(1.0, float(counts.mean()))
            mean_rate = float(rates.mean())
            effective_upload = sn.upload_mbps * sn.throttle
            utilization = min(2.0, mean_rate / effective_upload)
            share = effective_upload / mean_count
            target = supernode_id
        else:
            concurrent = float(cloud_rate[start:end + 1].mean())
            utilization = min(2.0, concurrent / budget)
            share = max(CLOUD_FLOW_SHARE_FLOOR_MBPS,
                        CLOUD_FLOW_HEADROOM * game.stream_rate_mbps)
            target = int(state.nearest_dc[player])

        server_latency = server_latency_ms(state, player, kind)
        encode_ms = 0.0
        if state.compression is not None and supernode_id < 0:
            encode_ms = state.compression.encode_latency_ms
        path = PathSpec(
            one_way_latency_ms=float(cols.latency_ms[player]),
            sender_share_mbps=max(0.05, share),
            receiver_download_mbps=float(
                state.topology.player_links.download_mbps[player]))
        # Continuity deadline: the game's Table-2 requirement applied
        # to packet delivery on the downstream path.  Server
        # interaction pipelines with rendering, so it affects the
        # response metric but not per-packet delivery.
        session_config = SessionConfig(
            response_budget_ms=game.latency_requirement_ms,
            tolerance=game.tolerance,
            path=path,
            upstream_one_way_ms=0.0,
            processing_ms=encode_ms,
            sender_utilization=utilization,
            duration_s=QOS_DURATION_S,
            adaptive=state.config.strategies.rate_adaptation,
        )
        outcome = estimate_continuity(session_config, rng, state.transport,
                                      n_samples=QOS_SAMPLES)
        response = (float(cols.upstream_ms[player])
                    + outcome.mean_response_latency_ms
                    + server_latency + PLAYOUT_PROCESSING_MS)
        records.append(SessionRecord(
            player=player, day=day, game=game.name, kind=kind,
            target=target,
            response_latency_ms=response,
            server_latency_ms=server_latency,
            continuity=outcome.continuity,
            satisfied=outcome.satisfied,
            join_latency_ms=join_latency_ms,
        ))
    return records
