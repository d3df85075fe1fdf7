"""State ⇄ payload conversion: the hidden-mutable-state inventory.

Bit-identical resume rests on two audited facts (DESIGN.md §11):

1. **The RNG ordering contract is day-scoped.**
   :class:`~repro.sim.rng.RngFactory` is stateless (it stores only the
   root seed); every in-run stream is derived per day
   (``plans-{day}``, ``games-{day}``, ``selection-{day}``,
   ``qos-{day}``, ``faults-{day}``, ``throttle-{day}``,
   ``assignment-{day}``, ``provision-{day}``), and the construction
   streams (``population``, ``supernodes``, ``cdn``) are consumed
   before day 0.  No live generator state ever crosses a day boundary,
   so "checkpoint the RNG" means "store the seed".

2. **Everything else that crosses a day boundary is enumerated here.**
   Captured: the supernode pool's mutable fields (throttle/online/
   supported_total; ``connected``, derived from the session rows, is
   always empty at a day boundary), the *ordered* live list (fault targeting
   indexes into it; ``SweepLoads`` rows follow its order), sticky
   assignments, per-player candidate lists, the rating ledger, the
   reputation score cache (it cannot be recomputed — scores age by
   refresh day), credit accounts, per-datacenter player→server maps,
   the server-latency cache, the provisioner's ARIMA hidden state
   (``_history``/``_residuals``/``_last_forecast`` — the last is
   non-None at day boundaries once the model is ready), fault
   penalties/accounting, the workload knobs
   (``daily_participants``/``weekly_weights``/start-time/duration
   models), and the accumulated
   :class:`~repro.core.accounting.RunResult`.  A payload with
   ``use_batch_assignment`` switched on is refused: it was written by a
   removed snapshot-batched join mode this build no longer has.  Older
   payloads also carry a retired scoring-mode flag, which is ignored
   whatever its value: it chose between two scorers pinned
   bit-identical, so either value resumes the same run.

   Deliberately *not* captured, with reasons:

   * ``SimState.sessions`` — every row leaves service when its day
     ends (§4.1: cycles do not wrap) and the next ``sweep_day``
     starts a fresh table, so at a day boundary it holds nothing to
     resume; restore refuses a non-empty ``connected`` list;

   * population/topology/transport/datacenter structure/CDN sites —
     rebuilt deterministically from the serialized ``SystemConfig``;
   * the supernode directory — rebuilt from the live
     list by :func:`~repro.core.state.deploy`;
   * ``state.games`` — cleared by ``choose_games`` at each day start
     before any read;
   * supernode ``throttle`` *semantics*: captured for robustness, but
     ``roll_throttle`` re-rolls it unconditionally at day start;
   * retry/backoff state — :class:`~repro.faults.retry.RetryPolicy`
     and :class:`~repro.faults.detection.FailureDetector` are frozen;
     attempt counters live on the stack inside ``lifecycle.migrate``;
   * obs tracer/registry — telemetry, not simulation state.  The
     accumulated *telemetry series* (time-series samples + event log)
     does ride along, but at the checkpoint layer — an optional
     ``telemetry`` payload key written by
     :func:`~repro.persist.checkpoint.save_checkpoint` via
     :func:`repro.obs.capture_telemetry` — precisely so this
     simulation-state inventory stays simulation-only.

Captured payloads are JSON values, except that pairs and rows may be
tuples, which ``json`` encodes as arrays (a loaded payload has lists
there; restore accepts either).  ``json`` round-trips finite floats
exactly, and integer dict keys are stored as explicit pairs (JSON
object keys are strings) in original insertion order.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter

import numpy as np

from ..core.accounting import DayMetrics, RunResult, SessionRecord
from ..core.candidates import CandidateEntry
from ..core.config import SystemConfig
from ..core.entities import ConnectionKind
from ..core.state import SimState, deploy
from ..economics.ledger import SupernodeAccount
from ..faults import FaultSummary
from ..faults.plan import FaultPlan
from ..reputation.ratings import Rating
from ..sim.cycles import Schedule
from ..sim.rng import RngFactory
from ..workload.churn import DurationMixture, StartTimeModel
from ..workload.games import GAME_CATALOGUE
from .codec import CheckpointCorruptError, CheckpointVersionError

__all__ = ["config_to_dict", "config_from_dict", "capture_state",
           "restore_state", "overlay_state", "capture_result",
           "capture_result_except_sessions", "session_row",
           "restore_result"]

_GAME_BY_NAME = {game.name: game for game in GAME_CATALOGUE}

_SUMMARY_COUNTS = ("events_applied", "displaced", "recovered", "degraded",
                   "dropped", "retries", "shed", "drained", "joins_shed")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def config_to_dict(config: SystemConfig) -> dict:
    """A JSON-ready dict capturing every :class:`SystemConfig` field."""
    import dataclasses

    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    from ..core.config import StrategyFlags

    data = dict(data)
    data["strategies"] = StrategyFlags(**data["strategies"])
    schedule = dict(data["schedule"])
    schedule["peak_subcycles"] = tuple(schedule["peak_subcycles"])
    data["schedule"] = Schedule(**schedule)
    plan = data.get("fault_plan")
    data["fault_plan"] = None if plan is None else FaultPlan.from_dict(plan)
    return SystemConfig(**data)


# ----------------------------------------------------------------------
# fault summaries
# ----------------------------------------------------------------------
def _summary_to_dict(summary: FaultSummary) -> dict:
    data = {name: getattr(summary, name) for name in _SUMMARY_COUNTS}
    data["time_to_recover_ms"] = list(summary.time_to_recover_ms)
    return data


def _summary_from_dict(data: dict) -> FaultSummary:
    return FaultSummary(
        **{name: data[name] for name in _SUMMARY_COUNTS},
        time_to_recover_ms=list(data["time_to_recover_ms"]))


# ----------------------------------------------------------------------
# SimState
# ----------------------------------------------------------------------
def capture_state(state: SimState) -> dict:
    """Serialize every mutable field of a :class:`SimState` at a day
    boundary (see the module docstring for the inventory)."""
    provisioner = None
    if state.provisioner is not None:
        model = state.provisioner._model
        provisioner = {
            "history": list(model._history),
            "residuals": list(model._residuals),
            "last_forecast": model._last_forecast,
        }
    # One pass over the live fog rows; indexed by player, so sorted.
    cols = state.sessions.columns
    rows = np.flatnonzero((cols.active == 1) & (cols.supernode_id >= 0))
    connected: list[list[int]] = [[] for _ in state.supernode_pool]
    for sid, player in zip(cols.supernode_id[rows].tolist(),
                           rows.tolist()):
        connected[sid].append(player)
    return {
        "config": config_to_dict(state.config),
        "seed": state.rng_factory.seed,
        "current_day": state.current_day,
        "pool_size": len(state.supernode_pool),
        "supernodes": [
            {"id": sn.supernode_id, "online": sn.online,
             "throttle": sn.throttle,
             "supported_total": sn.supported_total,
             "connected": players}
            for sn, players in zip(state.supernode_pool, connected)],
        # Ordered: fault targeting draws indices into this list and
        # SweepLoads rows follow its order, so a set would not do.
        "live_ids": [sn.supernode_id for sn in state.live_supernodes],
        "supernode_join_latencies_ms":
            list(state.supernode_join_latencies_ms),
        # Tuples encode as JSON arrays, so (key, value) item pairs and
        # CandidateEntry namedtuples go to ``json`` as they are.
        "sticky": list(state.sticky.items()),
        "candidates": [
            [player, list(entries)]
            for player, entries in state.candidates._lists.items()],
        "ratings": [
            [player, sn, [[r.value, r.day] for r in ratings]]
            for (player, sn), ratings in state.ledger._ratings.items()],
        "reputation": {
            "scores": [[player, sn, score] for (player, sn), score
                       in state.reputation._scores.items()],
            "last_refresh_day": state.reputation._last_refresh_day,
        },
        "credits": [
            {"supernode_id": a.supernode_id,
             "credits_usd": a.credits_usd, "costs_usd": a.costs_usd,
             "gb_served": a.gb_served, "days_enrolled": a.days_enrolled}
            for a in state.credits.accounts.values()],
        "datacenters": [list(dc._player_server.items())
                        for dc in state.datacenters],
        "server_latency_cache": list(state.server_latency_cache.items()),
        "provisioner": provisioner,
        "fault_outcomes": _summary_to_dict(state.fault_outcomes),
        "fault_penalties": (
            [[player, fraction] for player, fraction
             in state.faults.penalties.items()]
            if state.faults.active else []),
        "workload": {
            "daily_participants": state.daily_participants,
            "weekly_weights": (
                None if state.weekly_weights is None
                else [float(w) for w in state.weekly_weights]),
            "start_times": {
                "offpeak_share": state.start_times.offpeak_share,
                "offpeak_range": list(state.start_times.offpeak_range),
                "peak_range": list(state.start_times.peak_range),
            },
            "duration_mixture": {
                "short_share": state.duration_mixture.short_share,
                "medium_share": state.duration_mixture.medium_share,
                "long_share": state.duration_mixture.long_share,
            },
        },
    }


def restore_state(payload: dict) -> SimState:
    """Rebuild a :class:`SimState` bit-identical to the captured one.

    Construction re-derives everything deterministic (population,
    topology, pool, directory) from the serialized config + seed; the
    captured mutable state is then overlaid on top.
    """
    config = config_from_dict(payload["config"])
    return overlay_state(SimState(config), payload)


def overlay_state(state: SimState, payload: dict) -> SimState:
    """Overlay a captured mutable-state payload onto a fresh state.

    The seam sharded resume needs: partition states are built from a
    *sliced* population the config alone cannot reproduce, so the
    caller constructs the state and this function applies the captured
    inventory on top.  :func:`restore_state` is the plain-config
    composition of construction + overlay.
    """
    if len(state.supernode_pool) != payload["pool_size"]:
        raise CheckpointCorruptError(
            f"deterministic reconstruction produced "
            f"{len(state.supernode_pool)} supernodes but the checkpoint "
            f"recorded {payload['pool_size']} — config/code drift?")
    state.rng_factory = RngFactory(payload["seed"])
    state.current_day = payload["current_day"]
    # Earlier builds had an opt-in snapshot-batched join mode.  Off, it
    # was replay-exact, as every run now is; on, the snapshot holds
    # state only that mode produces, so no resume can continue it.
    if payload.get("use_batch_assignment"):
        raise CheckpointVersionError(
            "checkpoint was written with use_batch_assignment=True "
            "(snapshot-batched join assignment), a mode this build no "
            "longer has, so it cannot resume bit-identically; rerun from "
            "day 0, or resume with the release that wrote it")

    # Live set first (deploy resets online flags and rebuilds the
    # directory), then the per-node mutable fields on top.
    live = [state.supernode_pool[sn_id] for sn_id in payload["live_ids"]]
    if state.supernode_pool:
        deploy(state, live)
    state.supernode_join_latencies_ms = list(
        payload["supernode_join_latencies_ms"])
    for record in payload["supernodes"]:
        if record["connected"]:
            raise ValueError(
                f"supernode {record['id']} has connected players "
                f"{record['connected']}, but a snapshot carries no "
                f"session rows to restore them into")
        sn = state.supernode_pool[record["id"]]
        sn.online = record["online"]
        sn.throttle = record["throttle"]
        sn.supported_total = record["supported_total"]

    state.sticky = {player: sn for player, sn in payload["sticky"]}
    state.candidates._lists = {
        player: [CandidateEntry(sn_id, delay)
                 for sn_id, delay in entries]
        for player, entries in payload["candidates"]}

    state.ledger._ratings = defaultdict(list)
    for player, sn, ratings in payload["ratings"]:
        state.ledger._ratings[(player, sn)] = [
            Rating(value=value, day=day) for value, day in ratings]
    state.ledger._reindex()
    state.reputation._scores = {
        (player, sn): score
        for player, sn, score in payload["reputation"]["scores"]}
    state.reputation._last_refresh_day = \
        payload["reputation"]["last_refresh_day"]

    for record in payload["credits"]:
        state.credits.accounts[record["supernode_id"]] = \
            SupernodeAccount(**record)
    for dc, assignments in zip(state.datacenters, payload["datacenters"]):
        for player, server in assignments:
            dc.assign(player, server)
    state.server_latency_cache = {
        player: ms for player, ms in payload["server_latency_cache"]}

    if (payload["provisioner"] is None) != (state.provisioner is None):
        raise CheckpointCorruptError(
            "provisioner presence disagrees between checkpoint and "
            "reconstructed config")
    if state.provisioner is not None:
        model = state.provisioner._model
        model._history = [float(v) for v in
                          payload["provisioner"]["history"]]
        model._residuals = [float(v) for v in
                            payload["provisioner"]["residuals"]]
        model._last_forecast = payload["provisioner"]["last_forecast"]

    state.fault_outcomes = _summary_from_dict(payload["fault_outcomes"])
    if state.faults.active:
        state.faults.penalties = {
            player: fraction
            for player, fraction in payload["fault_penalties"]}
    elif payload["fault_penalties"]:
        raise CheckpointCorruptError(
            "checkpoint carries fault penalties but the config has no "
            "fault plan")

    workload = payload["workload"]
    state.daily_participants = workload["daily_participants"]
    state.weekly_weights = (
        None if workload["weekly_weights"] is None
        else np.asarray(workload["weekly_weights"], dtype=np.float64))
    starts = workload["start_times"]
    state.start_times = StartTimeModel(
        offpeak_share=starts["offpeak_share"],
        offpeak_range=tuple(starts["offpeak_range"]),
        peak_range=tuple(starts["peak_range"]))
    state.duration_mixture = DurationMixture(
        **workload["duration_mixture"])
    return state


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
#: A session record's row: its fields in ``SessionRecord`` order, the
#: connection kind by value (``_value_`` is the member's plain value
#: attribute; ``.value`` goes through a slower descriptor).  A tuple
#: encodes as a JSON array.
session_row = attrgetter(
    "player", "day", "game", "kind._value_", "target",
    "response_latency_ms", "server_latency_ms", "continuity",
    "satisfied", "join_latency_ms")


def capture_result(result: RunResult) -> dict:
    """Serialize the accumulated accounting of a (partial) run."""
    payload = capture_result_except_sessions(result)
    payload["sessions"] = list(map(session_row, result.sessions))
    return payload


def capture_result_except_sessions(result: RunResult) -> dict:
    """:func:`capture_result` without its ``sessions`` rows, for writers
    that encode the append-only session list incrementally."""
    return {
        "days": [
            [d.day, d.online_players, d.supernode_players,
             d.cloud_players, d.cloud_bandwidth_mbps,
             d.mean_response_latency_ms, d.mean_server_latency_ms,
             d.mean_continuity, d.satisfied_ratio]
            for d in result.days],
        "join_latencies_ms": list(result.join_latencies_ms),
        "supernode_join_latencies_ms":
            list(result.supernode_join_latencies_ms),
        "migration_latencies_ms": list(result.migration_latencies_ms),
        "assignment_wall_times_s": list(result.assignment_wall_times_s),
        "faults": _summary_to_dict(result.faults),
    }


def restore_result(payload: dict) -> RunResult:
    """Rebuild the :class:`RunResult` a resumed run keeps appending to."""
    result = RunResult()
    result.days = [
        DayMetrics(day=day, online_players=online,
                   supernode_players=supernode, cloud_players=cloud,
                   cloud_bandwidth_mbps=bandwidth,
                   mean_response_latency_ms=response,
                   mean_server_latency_ms=server,
                   mean_continuity=continuity,
                   satisfied_ratio=satisfied)
        for day, online, supernode, cloud, bandwidth, response, server,
        continuity, satisfied in payload["days"]]
    result.sessions = [
        SessionRecord(player=player, day=day, game=game,
                      kind=ConnectionKind(kind), target=target,
                      response_latency_ms=response,
                      server_latency_ms=server, continuity=continuity,
                      satisfied=satisfied, join_latency_ms=join)
        for player, day, game, kind, target, response, server,
        continuity, satisfied, join in payload["sessions"]]
    result.join_latencies_ms = list(payload["join_latencies_ms"])
    result.supernode_join_latencies_ms = list(
        payload["supernode_join_latencies_ms"])
    result.migration_latencies_ms = list(
        payload["migration_latencies_ms"])
    result.assignment_wall_times_s = list(
        payload["assignment_wall_times_s"])
    result.faults = _summary_from_dict(payload["faults"])
    return result
