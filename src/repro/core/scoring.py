"""Session scoring: per-day QoS evaluation of every live session.

The scoring stage of the pipeline: one vectorised QoS evaluation per
day (:func:`score_sessions_batch`).  Its reference, a per-session loop
over the scalar estimate, lives with the tests
(``tests/helpers/scoring_oracle.py``) and is pinned bit-identical to
it; fault penalties fold in *after* scoring so the RNG consumption of
the scoring path never shifts (:func:`apply_fault_penalties`).

Layering: imports ``core.state`` / ``core.accounting`` and foundation
modules only — never the orchestrator, the façade, or ``experiments``
(``tools/check_layering.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .. import obs
from ..network.latency import PLAYOUT_PROCESSING_MS
from ..streaming.continuity import is_satisfied
from ..streaming.session import estimate_continuity_batch
from .accounting import (
    CLOUD_FLOW_HEADROOM,
    CLOUD_FLOW_SHARE_FLOOR_MBPS,
    SessionRecord,
    cloud_egress_budget,
)
from .entities import ConnectionKind
from .state import SimState

__all__ = ["CDN_COORDINATION_MS", "QOS_SAMPLES", "QOS_DURATION_S",
           "server_latency_ms", "score_sessions", "apply_fault_penalties",
           "gather_session_params", "score_sessions_batch"]

#: Coordination penalty when CDN sites cooperate on game state (§4.2:
#: "the servers need to cooperate with each other to compute new game
#: status").  Unlike intra-datacenter server hops this crosses the WAN
#: between edge sites, which is what keeps CDN's latency improvement
#: modest in the paper.
CDN_COORDINATION_MS = 35.0

#: Per-packet sample count of the fast session estimate.
QOS_SAMPLES = 64
#: Modelled session length (seconds) fed to the estimate.
QOS_DURATION_S = 60.0


def server_latency_ms(state: SimState, player: int,
                      kind: ConnectionKind) -> float:
    """Interaction (server) latency for a player this epoch."""
    if kind is ConnectionKind.CDN:
        return CDN_COORDINATION_MS
    return state.server_latency_cache.get(
        player, state.datacenters[0].hop_ms)


def score_sessions(state: SimState, day, sessions, loads, cloud_rate,
                   rng) -> list[SessionRecord]:
    with obs.get_tracer().span("score_sessions", day=day,
                               sessions=len(sessions)):
        records = score_sessions_batch(state, day, sessions, loads,
                                       cloud_rate, rng)
        if state.faults.active and state.faults.penalties:
            records = apply_fault_penalties(state, records)
        return records


def apply_fault_penalties(state: SimState,
                          records: list[SessionRecord]
                          ) -> list[SessionRecord]:
    """Fold the day's fault penalties into the scored records.

    Penalties accumulate per player during the sweep (stream
    interruption while recovering, lost update messages) as a
    continuity fraction lost; they apply *after* scoring so the
    scorer stays bit-identical to its reference loop and the RNG
    consumption of the scoring path never shifts.
    """
    penalties = state.faults.penalties
    out = []
    for record in records:
        fraction = penalties.get(record.player)
        if not fraction:
            out.append(record)
            continue
        continuity = max(0.0, record.continuity * (1.0 - fraction))
        out.append(replace(record, continuity=continuity,
                           satisfied=is_satisfied(continuity)))
    return out


def gather_session_params(state: SimState, sessions, loads, cloud_rate):
    """Per-session scoring inputs as parallel arrays.

    The per-session arithmetic (load means, utilisation, per-flow
    shares) runs on plain Python floats in session order — exactly
    the per-session reference loop — so the batch estimate receives
    bit-identical inputs.  Per-window utilisation and share values
    are memoised per ``(target, start, end)`` key: the repeated
    value is the reference loop's own arithmetic computed once, not
    a re-derivation, so the memo cannot change a bit.  Continuity
    deadline semantics: the game's Table-2 requirement applies to
    packet delivery on the downstream path (upstream 0, processing =
    encode only); server interaction pipelines with rendering, so it
    affects only the response metric.
    """
    hours = state.config.schedule.hours_per_day
    budget = cloud_egress_budget(state)
    download = state.topology.player_links.download_mbps
    games = state.games
    pool = state.supernode_pool
    nearest_dc = state.nearest_dc
    counts_mat, rates_mat = loads.counts, loads.rates
    row_of = loads.row
    server_cache = state.server_latency_cache
    default_hop_ms = state.datacenters[0].hop_ms
    encode_cloud_ms = (state.compression.encode_latency_ms
                       if state.compression is not None else 0.0)
    load_stats: dict[tuple[int, int, int], tuple[float, float]] = {}
    cloud_utils: dict[tuple[int, int], float] = {}
    meta = []  # (player, session, game, target, server_latency_ms)
    budgets: list[float] = []
    senders: list[float] = []
    processing: list[float] = []
    utils: list[float] = []
    for player, session in sessions.items():
        game = games[player]
        plan = session.plan
        start = min(plan.start_subcycle, hours)
        end = min(hours, start + math.ceil(plan.duration_hours) - 1)

        sid = session.supernode_id
        if sid is not None:
            key = (sid, start, end)
            stats = load_stats.get(key)
            if stats is None:
                row = row_of(sid)
                mean_count = max(
                    1.0, float(counts_mat[row, start:end + 1].mean()))
                mean_rate = float(rates_mat[row, start:end + 1].mean())
                sn = pool[sid]
                effective_upload = sn.upload_mbps * sn.throttle
                stats = (min(2.0, mean_rate / effective_upload),
                         max(0.05, effective_upload / mean_count))
                load_stats[key] = stats
            utilization, sender_share = stats
            encode_ms = 0.0
            target = sid
        else:
            window = (start, end)
            utilization = cloud_utils.get(window)
            if utilization is None:
                concurrent = float(cloud_rate[start:end + 1].mean())
                utilization = min(2.0, concurrent / budget)
                cloud_utils[window] = utilization
            # Always >= the 0.5 Mbps floor, so the reference loop's
            # max(0.05, share) clamp is a no-op here.
            sender_share = max(CLOUD_FLOW_SHARE_FLOOR_MBPS,
                               CLOUD_FLOW_HEADROOM * game.stream_rate_mbps)
            encode_ms = encode_cloud_ms
            target = int(nearest_dc[player])

        if session.kind is ConnectionKind.CDN:
            server_latency = CDN_COORDINATION_MS
        else:
            server_latency = server_cache.get(player, default_hop_ms)
        meta.append((player, session, game, target, server_latency))
        budgets.append(game.latency_requirement_ms)
        senders.append(sender_share)
        processing.append(encode_ms)
        utils.append(utilization)
    # Latency and download columns gather in one indexed read each —
    # the setter-maintained float64 mirrors hold the exact bits the
    # per-session attribute reads appended, in the same (dict) order.
    players_arr = np.fromiter((m[0] for m in meta), dtype=np.intp,
                              count=len(meta))
    path_arr = sessions.columns.latency_ms[players_arr]
    receivers_arr = np.asarray(download,
                               dtype=np.float64)[players_arr]
    arrays = (np.asarray(budgets, dtype=np.float64), path_arr,
              np.asarray(senders, dtype=np.float64), receivers_arr,
              np.asarray(processing, dtype=np.float64),
              np.asarray(utils, dtype=np.float64))
    return meta, arrays


def score_sessions_batch(state: SimState, day, sessions, loads, cloud_rate,
                         rng) -> list[SessionRecord]:
    """Batch scorer: one vectorised QoS evaluation for the day.

    Bit-identical to the per-session reference loop in
    ``tests/helpers/scoring_oracle.py`` for the same RNG stream
    (pinned by tests): parameters are gathered with the reference
    loop's own arithmetic and the batched estimate draws the
    identical random sequence.
    """
    if not sessions:
        return []
    meta, (budgets, path_lat, senders, receivers, processing, utils) = \
        gather_session_params(state, sessions, loads, cloud_rate)
    outcome = estimate_continuity_batch(
        budgets, path_lat, senders, receivers,
        np.zeros_like(budgets), processing, utils, rng,
        duration_s=QOS_DURATION_S,
        adaptive=state.config.strategies.rate_adaptation,
        transport=state.transport, n_samples=QOS_SAMPLES)
    # Element-wise float64 addition in the reference loop's operand
    # order, then one exact tolist() per column — identical bits to
    # per-record Python-float arithmetic without 3 numpy scalar
    # extractions per session.
    upstreams = sessions.columns.upstream_ms[np.fromiter(
        (m[0] for m in meta), dtype=np.intp, count=len(meta))]
    server_lats = np.array([m[4] for m in meta])
    responses = (upstreams + outcome.mean_response_latency_ms
                 + server_lats + PLAYOUT_PROCESSING_MS).tolist()
    continuity = outcome.continuity.tolist()
    satisfied = outcome.satisfied.tolist()
    records = []
    for i, (player, session, game, target, server_latency) in \
            enumerate(meta):
        records.append(SessionRecord(
            player=player, day=day, game=game.name, kind=session.kind,
            target=target,
            response_latency_ms=responses[i],
            server_latency_ms=server_latency,
            continuity=continuity[i],
            satisfied=satisfied[i],
            join_latency_ms=session.join_latency_ms,
        ))
    return records

