"""Day/subcycle orchestrator: the staged sweep pipeline.

The top of the core layering.  One day runs as the §4.1 cycle:

1. throttle re-roll (``stage`` order documented in :data:`run_day`);
2. weekly server assignment;
3. day plans + social game choice;
4. the subcycle sweep — per subcycle the explicit stage tuple
   :data:`SUBCYCLE_STAGES` runs in order: departures → fault
   injection (which walks migration/retry ladders) → scenario hooks
   (flash crowds and other ``repro.scenarios`` stages, a no-op by
   default) → arrivals/joins;
5. session scoring (``core.scoring``) and ratings;
6. accounting (``core.accounting``): credits, day metrics, Eq.-2
   bandwidth.

Every function operates on a :class:`~repro.core.state.SimState`;
:class:`~repro.core.system.CloudFogSystem` is a thin façade over this
module.  The stage tuple is read dynamically so tests can monkeypatch
it to assert ordering and state handoff.

Layering: may import every lower core stage and ``faults.handlers`` —
never ``core.system`` or ``experiments`` (``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import obs
from ..faults import handlers
from ..workload.churn import PlayerDayPlan, sample_day_plans
from ..workload.games import GAME_CATALOGUE, game_for_level
from ..workload.population import choose_game
from .accounting import (RunResult, SweepLoads, cloud_bandwidth,
                         credit_contributors, summarize_day)
from .entities import ConnectionKind
from .lifecycle import admit_join, join
from .scoring import score_sessions
from .server_assignment import assign_players_randomly, assign_players_socially
from .state import SessionTable, SimState, deploy

__all__ = ["SweepContext", "SUBCYCLE_STAGES", "stage_departures",
           "stage_faults", "stage_scenario", "stage_arrivals",
           "sample_plans",
           "choose_games", "sweep_day", "run_server_assignment",
           "run_provisioning", "day_end_flush", "run_day",
           "run_schedule"]

_log = obs.get_logger(__name__)


# ----------------------------------------------------------------------
# plans / games
# ----------------------------------------------------------------------
def sample_plans(state: SimState, rng: np.random.Generator,
                 day: int = 0) -> list[PlayerDayPlan]:
    n = state.topology.num_players
    if state.daily_participants is not None:
        weight = 1.0
        if state.weekly_weights is not None:
            weight = float(state.weekly_weights[day % 7])
        count = min(n, int(round(state.daily_participants * weight)))
        players = rng.choice(n, size=max(1, count), replace=False)
    else:
        players = np.arange(n)
    plans = sample_day_plans(rng, players, state.duration_mixture,
                             state.start_times)
    offsets = state.start_offsets
    if offsets:
        # Timezone profiles (repro.scenarios): shift each player's
        # start by its region's offset, wrapping inside the day.  The
        # shift is applied after sampling, so the draw sequence — and
        # with it every no-scenario baseline — is untouched.
        hours = state.config.schedule.hours_per_day
        nearest = state.nearest_dc
        plans = [
            plan if offset == 0 else
            replace(plan, start_subcycle=(
                (plan.start_subcycle - 1 + offset) % hours) + 1)
            for plan in plans
            for offset in (int(offsets[int(nearest[plan.player])
                                       % len(offsets)]),)]
    return plans


def choose_games(state: SimState, plans: list[PlayerDayPlan],
                 rng: np.random.Generator) -> None:
    state.games.clear()
    weights = state.game_weights
    if weights is not None:
        # Scenario game mix: a weighted catalogue draw replaces the
        # social rule wholesale (an esports final is not organic play).
        catalogue = [game for game in GAME_CATALOGUE
                     if weights.get(game.name, 0.0) > 0.0]
        probs = np.array([weights[game.name] for game in catalogue])
        probs = probs / probs.sum()
        for index in rng.permutation(len(plans)):
            plan = plans[int(index)]
            state.games[plan.player] = catalogue[
                int(rng.choice(len(catalogue), p=probs))]
    else:
        for index in rng.permutation(len(plans)):
            plan = plans[int(index)]
            state.games[plan.player] = choose_game(
                plan.player, state.population.friends, state.games, rng)
    cap = state.quality_ceiling
    if cap is not None:
        # Bandwidth-constrained thin clients: nothing streams above
        # the ceiling level, whatever game the social rule picked.
        substitute = game_for_level(cap)
        for player, game in state.games.items():
            if game.default_level > cap:
                state.games[player] = substitute


# ----------------------------------------------------------------------
# the subcycle sweep: explicit staged pipeline
# ----------------------------------------------------------------------
@dataclass
class SweepContext:
    """Mutable per-day sweep state handed from stage to stage.

    One context lives for one :func:`sweep_day` call; the stages in
    :data:`SUBCYCLE_STAGES` mutate it in order at every subcycle.
    """

    day: int
    hours: int
    rng: np.random.Generator
    result: RunResult
    measuring: bool
    loads: SweepLoads
    cloud_rate: np.ndarray
    starts: dict[int, list[PlayerDayPlan]]
    #: The day's live sessions, one ``sessions.columns`` row each.
    sessions: SessionTable
    fault_rng: np.random.Generator | None = None
    #: Admission-control policy (duck-typed AdmissionPolicy) and the
    #: concurrent cloud-session occupancy line it caps against; both
    #: None unless an active FaultPlan carries an admission policy.
    admission: object | None = None
    cloud_count: np.ndarray | None = None
    subcycle: int = 0


def _grouped_disconnect(state: SimState, players: np.ndarray,
                        sids: np.ndarray) -> None:
    """One ``disconnect_many`` per distinct supernode.

    Bit-identical to per-player ``disconnect`` calls: set discard is
    order-independent and the availability byte depends only on the
    final load, so grouping changes nothing observable.
    """
    pool = state.supernode_pool
    for sid in np.unique(sids).tolist():
        pool[sid].disconnect_many(players[sids == sid].tolist())


def stage_departures(state: SimState, ctx: SweepContext) -> None:
    """Disconnect every session whose play window ended this subcycle.

    Vectorised over :class:`~repro.core.columns.SessionColumns`: the
    mask ``active & end_subcycle == subcycle-1 & supernode_id >= 0``
    selects the fog sessions that ended — a popped (shed) session has
    ``active == 0`` and a cloud/queued one ``supernode_id == -1``.
    """
    cols = ctx.sessions.columns
    ended = np.flatnonzero((cols.active == 1)
                           & (cols.end_subcycle == ctx.subcycle - 1)
                           & (cols.supernode_id >= 0))
    if ended.size:
        _grouped_disconnect(state, ended, cols.supernode_id[ended])


def stage_faults(state: SimState, ctx: SweepContext) -> None:
    """Fire scheduled faults (crash → migration/retry, flaky, …).

    Runs between departures and arrivals: streaming sessions see the
    failure mid-day and walk the §3.2.2 recovery ladder, while this
    subcycle's new joiners already see the post-fault directory.
    """
    if ctx.fault_rng is not None:
        handlers.apply_faults(state, ctx.day, ctx.subcycle, ctx.sessions,
                              ctx.loads, ctx.cloud_rate, ctx.fault_rng,
                              ctx.result, ctx.measuring, ctx.hours)


def _span_add(target: np.ndarray, rows, ends, start: int, values) -> None:
    """``target[rows[i], start:ends[i]+1] += values[i]`` for all ``i``.

    Flattens every span into one ``np.add.at`` call.  Increments apply
    in array order, i.e. plan order — the same order the per-session
    slice adds would have used, so float accumulation is bit-identical.
    """
    rows = np.asarray(rows, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - start + 1
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    cols = start + np.arange(int(lengths.sum()), dtype=np.int64) - offsets
    flat = np.repeat(rows, lengths) * target.shape[-1] + cols
    if np.isscalar(values):
        np.add.at(target.reshape(-1), flat, values)
    else:
        np.add.at(target.reshape(-1), flat,
                  np.repeat(np.asarray(values, dtype=np.float64), lengths))


def _commit_cohort(state: SimState, ctx: SweepContext, plans, sessions,
                   ends) -> None:
    """Insert a subcycle's admitted sessions; commit their load spans.

    The table inserts stay per session (each writes one column row),
    but the load/cloud-rate span additions collapse into one
    :func:`_span_add` per array, applied in plan order.
    """
    subcycle = ctx.subcycle
    games = state.games
    table = ctx.sessions
    compression = state.compression
    measuring = ctx.measuring
    latencies = ctx.result.join_latencies_ms
    sn_rows: list[int] = []
    sn_ends: list[int] = []
    sn_rates: list[float] = []
    cloud_ends: list[int] = []
    cloud_rates: list[float] = []
    for plan, session, end in zip(plans, sessions, ends):
        rate = games[plan.player].stream_rate_mbps
        table.add(session, subcycle, end)
        if session.supernode_id is not None:
            sn_rows.append(ctx.loads.row(session.supernode_id))
            sn_ends.append(end)
            sn_rates.append(rate)
        elif session.kind is ConnectionKind.CLOUD:
            if compression is not None:
                rate = compression.compressed_mbps(rate)
            cloud_ends.append(end)
            cloud_rates.append(rate)
        if measuring and session.join_latency_ms is not None:
            latencies.append(session.join_latency_ms)
    if sn_rows:
        _span_add(ctx.loads.counts, sn_rows, sn_ends, subcycle, 1)
        _span_add(ctx.loads.rates, sn_rows, sn_ends, subcycle, sn_rates)
    if cloud_ends:
        zeros = np.zeros(len(cloud_ends), dtype=np.int64)
        _span_add(ctx.cloud_rate, zeros, cloud_ends, subcycle, cloud_rates)


def _session_ends(plans, subcycle: int, hours: int) -> list[int]:
    """Each plan's last subcycle when it starts at ``subcycle``.

    The one play-window formula: a session joins at ``min(start,
    hours)`` and plays ``ceil(duration)`` subcycles, clamped to the
    day (cycles do not wrap).  Everything downstream reads the window
    from the session table's columns.
    """
    return np.minimum(hours, subcycle - 1 + np.ceil(
        [plan.duration_hours for plan in plans]).astype(np.int64)).tolist()


def stage_arrivals(state: SimState, ctx: SweepContext) -> None:
    """Join every plan starting this subcycle; commit its load span.

    Plans join one at a time in plan order — the §3.2.2 sequential
    capacity ask, each join seeing the loads left by the previous one.
    Admission control decides per plan against the cloud occupancy the
    plans before it committed, so that line (kept only under admission)
    advances plan by plan; every other span commits in one batch once
    the cohort has joined.
    """
    subcycle = ctx.subcycle
    plans = ctx.starts.pop(subcycle, [])
    if not plans:
        return
    admission = ctx.admission
    ends = _session_ends(plans, subcycle, ctx.hours)
    admitted_plans = []
    admitted = []
    admitted_ends = []
    for plan, end in zip(plans, ends):
        session = join(state, plan, ctx.rng)
        if admission is not None and not admit_join(
                state, session, admission, subcycle, ctx.cloud_count):
            # Backpressure: the join is refused before it becomes a
            # session — never displaced, never scored.
            ctx.result.faults.joins_shed += 1
            obs.get_registry().counter("repro_joins_shed_total").inc()
            obs.get_events().emit("join_shed", day=ctx.day,
                                  subcycle=subcycle, player=plan.player)
            continue
        if (ctx.cloud_count is not None
                and session.kind is ConnectionKind.CLOUD):
            ctx.cloud_count[subcycle:end + 1] += 1
        admitted_plans.append(plan)
        admitted.append(session)
        admitted_ends.append(end)
    _commit_cohort(state, ctx, admitted_plans, admitted, admitted_ends)


def stage_scenario(state: SimState, ctx: SweepContext) -> None:
    """Run the scenario-installed sweep hooks, in installation order.

    Sits between fault injection and arrivals so a scenario stage (a
    flash-crowd spike, say) can queue extra plans into ``ctx.starts``
    and have them join *this* subcycle, against the post-fault
    directory.  ``state.scenario_stages`` is empty by default, making
    this a no-op for every baseline run; scenario hooks draw only from
    their own dedicated RNG streams, so baselines stay bit-identical.
    """
    for hook in state.scenario_stages:
        hook(state, ctx)


#: The per-subcycle stage pipeline, in execution order.  Read
#: dynamically by :func:`sweep_day` (module attribute lookup every
#: call) so tests can monkeypatch it to assert ordering and handoff.
SUBCYCLE_STAGES = (stage_departures, stage_faults, stage_scenario,
                   stage_arrivals)


def sweep_day(state: SimState, plans, rng, result, measuring, day=0):
    """Process joins/leaves hour by hour; build load timelines.

    When a :class:`~repro.faults.plan.FaultPlan` is configured,
    scheduled faults fire between the subcycle's leaves and joins —
    sessions already streaming experience the failure mid-day and walk
    the §3.2.2 recovery ladder, while the subcycle's new joiners
    already see the post-fault directory.  Fault handling draws only
    from a dedicated ``faults-{day}`` stream, so a faulted run stays
    pairable with its fault-free baseline.
    """
    hours = state.config.schedule.hours_per_day
    starts: dict[int, list[PlayerDayPlan]] = {}
    for plan in plans:
        starts.setdefault(min(plan.start_subcycle, hours), []).append(plan)

    ctx = SweepContext(
        day=day, hours=hours, rng=rng, result=result, measuring=measuring,
        loads=SweepLoads.for_supernodes(state.live_supernodes, hours),
        cloud_rate=np.zeros(hours + 2), starts=starts,
        sessions=SessionTable(state.topology.num_players))

    if state.faults.active:
        state.faults.start_day(day)
        if state.faults.has_events_on(day):
            ctx.fault_rng = state.rng_factory.stream(f"faults-{day}")
        if state.faults.plan.admission is not None:
            ctx.admission = state.faults.plan.admission
            ctx.cloud_count = np.zeros(hours + 2)

    for subcycle in range(1, hours + 1):
        ctx.subcycle = subcycle
        for stage in SUBCYCLE_STAGES:
            stage(state, ctx)
    if state.faults.active:
        # Shed whatever a still-open partition window left queued, so
        # the conservation invariant holds at every day boundary.
        handlers.finish_day(state, ctx)
    # Disconnect everything at day end (cycles do not wrap, §4.1).
    cols = ctx.sessions.columns
    live = np.flatnonzero((cols.active == 1) & (cols.supernode_id >= 0))
    if live.size:
        _grouped_disconnect(state, live, cols.supernode_id[live])
    return ctx.sessions, ctx.loads, ctx.cloud_rate


# ----------------------------------------------------------------------
# server assignment
# ----------------------------------------------------------------------
def run_server_assignment(state: SimState, rng: np.random.Generator,
                          result: RunResult) -> None:
    if state.config.mode == "cdn":
        return
    players_by_dc: dict[int, list[int]] = {}
    for player in range(state.topology.num_players):
        players_by_dc.setdefault(
            int(state.nearest_dc[player]), []).append(player)
    state.server_latency_cache.clear()
    total_wall = 0.0
    for dc_index, players in players_by_dc.items():
        datacenter = state.datacenters[dc_index]
        if state.config.strategies.social_assignment:
            assignment = assign_players_socially(
                datacenter, players, state.population.friends, rng)
        else:
            assignment = assign_players_randomly(datacenter, players, rng)
        total_wall += assignment.wall_time_s
        # Per-player expected server latency: share of its friends on
        # other servers times the cross-server round trip.  The counts
        # are order-insensitive, so the cached adjacency tuples stand
        # in for the friend sets.
        adjacency = state.population.friends.adjacency()
        nearest = state.nearest_dc
        for player in players:
            friends = [f for f in adjacency.get(player, ())
                       if nearest[f] == dc_index]
            if not friends:
                state.server_latency_cache[player] = 0.0
                continue
            server = datacenter.server_of(player)
            crossing = sum(
                1 for f in friends if datacenter.server_of(f) != server)
            state.server_latency_cache[player] = (
                2.0 * datacenter.hop_ms * crossing / len(friends))
    result.assignment_wall_times_s.append(total_wall)


# ----------------------------------------------------------------------
# provisioning
# ----------------------------------------------------------------------
def run_provisioning(state: SimState, plans: list[PlayerDayPlan],
                     rng: np.random.Generator) -> None:
    """Observe per-window player counts; redeploy for the next window."""
    assert state.provisioner is not None
    hours = state.config.schedule.hours_per_day
    window = state.provisioner.window_hours
    # Vectorised per-window occupancy: a plan overlaps [ws, we] iff
    # start <= we and start + ceil(duration) - 1 >= ws — exactly
    # ``any(plan.online_at(s) for s in window)`` for a contiguous
    # window, without the per-plan per-subcycle Python loop.
    starts = np.fromiter((p.start_subcycle for p in plans),
                         dtype=np.int64, count=len(plans))
    durations = np.fromiter((p.duration_hours for p in plans),
                            dtype=np.float64, count=len(plans))
    ends = starts + np.ceil(durations).astype(np.int64) - 1
    with obs.get_tracer().span("run_provisioning", windows=max(
            1, -(-hours // window))):
        for window_start in range(1, hours + 1, window):
            window_end = min(hours, window_start + window - 1)
            online = int(np.count_nonzero(
                (starts <= window_end) & (ends >= window_start)))
            state.provisioner.observe(online)
            if state.provisioner.ready:
                target = min(state.provisioner.target_supernodes(),
                             len(state.supernode_pool))
                chosen = state.provisioner.choose_deployment(
                    state.supernode_pool, target, rng)
                deploy(state, chosen)
                obs.get_registry().counter(
                    "repro_provisioning_redeploys_total").inc()


# ----------------------------------------------------------------------
# one day / full schedule
# ----------------------------------------------------------------------
def day_end_flush(state: SimState, day: int, records, loads,
                  cloud_rate, result: RunResult, fault_base) -> None:
    """Flush one finished day into the telemetry time series.

    ``fault_base`` is the run-wide fault accounting captured at day
    start (:func:`_fault_counts`): the flush records only this day's
    deltas.  A no-op (never called) while observability is disabled —
    the store computes MOS and percentiles, which a disabled run must
    not pay for.
    """
    faults = result.faults
    base = fault_base or (0,) * 9
    obs.get_timeseries().observe_day(
        day=day, records=records, region_of=state.nearest_dc,
        cloud_bandwidth_mbps=cloud_bandwidth(state, cloud_rate, loads),
        fault_deltas={
            "displaced": faults.displaced - base[0],
            "recovered": faults.recovered - base[1],
            "degraded": faults.degraded - base[2],
            "dropped": faults.dropped - base[3],
            "retries": faults.retries - base[4],
            "shed": faults.shed - base[5],
            "drained": faults.drained - base[6],
            "joins_shed": faults.joins_shed - base[7],
        },
        recovery_ms=faults.time_to_recover_ms[base[8]:])


def _fault_counts(result: RunResult) -> tuple[int, ...]:
    faults = result.faults
    return (faults.displaced, faults.recovered, faults.degraded,
            faults.dropped, faults.retries, faults.shed, faults.drained,
            faults.joins_shed, len(faults.time_to_recover_ms))


def run_day(state: SimState, day: int, result: RunResult,
            measuring: bool) -> None:
    config = state.config
    tracer = obs.get_tracer()
    registry = obs.get_registry()
    timeseries = obs.get_timeseries()
    fault_base = _fault_counts(result) if timeseries.enabled else None
    day_span = tracer.span("run_day", day=day, measuring=measuring,
                           mode=config.mode)
    state.current_day = day
    with day_span:
        # (1) Throttle re-roll (its own stream: no workload shift).
        # Honest nodes draw nothing; the misbehaving classes draw one
        # uniform each in pool order, batched into a single call (the
        # RNG-ordering contract: k sequential random() calls produce
        # the same doubles as random(size=k)).
        throttle_rng = state.rng_factory.stream(f"throttle-{day}")
        probability = config.throttle_probability
        if not 0 <= probability <= 1:
            raise ValueError("probability must lie in [0, 1]")
        misbehaving = [sn for sn in state.supernode_pool
                       if sn.throttle_class < 1.0]
        for sn in state.supernode_pool:
            if sn.throttle_class >= 1.0:
                sn.throttle = 1.0
        if misbehaving:
            draws = throttle_rng.random(len(misbehaving))
            for sn, draw in zip(misbehaving, draws):
                sn.throttle = sn.throttle_class if draw < probability \
                    else 1.0

        # (Weekly) server assignment.
        if day % 7 == 0:
            with tracer.span("server_assignment", day=day):
                run_server_assignment(
                    state, state.rng_factory.stream(f"assignment-{day}"),
                    result)

        # (2) Day plans and social game choice (paired across systems).
        with tracer.span("day_plans", day=day):
            plans = sample_plans(
                state, state.rng_factory.stream(f"plans-{day}"), day=day)
            choose_games(state, plans,
                         state.rng_factory.stream(f"games-{day}"))

        # (3) Subcycle sweep.
        selection_rng = state.rng_factory.stream(f"selection-{day}")
        with tracer.span("sweep_day", day=day, plans=len(plans)):
            sessions, loads, cloud_rate = \
                sweep_day(state, plans, selection_rng, result, measuring,
                          day=day)

        # (4)+(5) Per-session QoS and ratings.
        qos_rng = state.rng_factory.stream(f"qos-{day}")
        records = score_sessions(state, day, sessions, loads,
                                 cloud_rate, qos_rng)
        with tracer.span("ratings", day=day):
            for record in records:
                if record.kind is ConnectionKind.SUPERNODE:
                    state.ledger.add(record.player, record.target,
                                     record.continuity, day)
            for player in {r.player for r in records
                           if r.kind is ConnectionKind.SUPERNODE}:
                state.reputation.refresh(player, today=day)

        # (5b) Credit the contributors.
        credit_contributors(state, loads)

        # (6) Provisioning windows.
        if state.provisioner is not None:
            run_provisioning(
                state, plans, state.rng_factory.stream(f"provision-{day}"))

        for kind in ConnectionKind:
            count = sum(1 for r in records if r.kind is kind)
            if count:
                registry.counter("repro_sessions_total",
                                 kind=kind.value).inc(count)
        if timeseries.enabled:
            day_end_flush(state, day, records, loads, cloud_rate,
                          result, fault_base)
        day_span.annotate(sessions=len(records))
        _log.debug("day done", extra=obs.kv(
            day=day, measuring=measuring, sessions=len(records)))

    if measuring and records:
        result.days.append(
            summarize_day(state, day, records, cloud_rate, loads))
        result.sessions.extend(records)


def run_schedule(state: SimState, days: int | None = None, *,
                 result: RunResult | None = None, start_day: int = 0,
                 on_day_end=None) -> RunResult:
    """Run the configured schedule and return measured-day results.

    Execution goes through the PeerSim-style
    :class:`~repro.sim.cycles.CycleScheduler`: each cycle (day) fires
    as a day-start hook — exactly the paper's cycle-driven execution
    model.  Short runs always measure at least the final day.

    The keyword-only parameters are the checkpoint/resume seam
    (:mod:`repro.persist`):

    * ``result`` — continue appending to an existing (restored)
      :class:`RunResult` instead of starting a fresh one; the
      construction-time supernode-join snapshot only happens for a
      fresh result.
    * ``start_day`` — first day to execute (resume skips the days the
      checkpoint already covered).  Warm-up/measurement windows depend
      only on the *total* day count, so a resumed run measures exactly
      the days the uninterrupted run would have.
    * ``on_day_end`` — called as ``on_day_end(state, day, result,
      total_days)`` through the scheduler's day-end hook chain after
      each completed day; the :class:`~repro.persist.Checkpointer`
      plugs in here.
    """
    from ..sim.cycles import CycleScheduler, Schedule

    schedule = state.config.schedule
    total_days = schedule.days if days is None else days
    if total_days <= 0:
        raise ValueError(f"days must be positive, got {total_days}")
    if start_day < 0:
        raise ValueError(f"start_day must be non-negative, got {start_day}")
    if result is None:
        result = RunResult()
        result.supernode_join_latencies_ms = list(
            state.supernode_join_latencies_ms)
    warmup = min(schedule.warmup_days, max(0, total_days - 1))

    driver = CycleScheduler(schedule=Schedule(
        days=total_days,
        hours_per_day=schedule.hours_per_day,
        warmup_days=warmup,
        peak_subcycles=schedule.peak_subcycles))
    driver.on_day_start(
        lambda day: run_day(state, day, result, measuring=day >= warmup))
    if on_day_end is not None:
        driver.on_day_end(
            lambda day: on_day_end(state, day, result, total_days))
    for day in range(start_day, total_days):
        driver.run_day(day)
    return result
