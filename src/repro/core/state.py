"""Shared mutable simulation state: the bottom layer of the pipeline.

:class:`SimState` is everything one deployed gaming system *is* —
population, infrastructure (supernode pool / CDN sites), sticky
sessions, reputation ledgers, caches — with none of the per-epoch
mechanics.  The stage modules (``core.lifecycle``, ``core.scoring``,
``core.accounting``, ``repro.faults.handlers``) and the orchestrator
(``core.sweep``) are module-level units operating *on* a state; the
:class:`~repro.core.system.CloudFogSystem` façade wires
config → state → pipeline.

Layering contract (enforced by ``tools/check_layering.py``): this
module imports only the foundation layers (network, sim, workload,
streaming, cloud, economics, reputation, rendering, forecast, obs, the
faults runtime) plus the leaf ``core`` modules (config, entities,
candidates, selection, provisioning) — never a stage module, the
orchestrator, or ``experiments``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import obs
from ..cloud.datacenter import Datacenter
from ..economics.ledger import CreditLedger
from ..faults import FaultSummary, build_injector
from ..network.bandwidth import BandwidthModel
from ..network.transport import TransportModel
from ..reputation.ratings import RatingLedger
from ..reputation.scores import ReputationTable
from ..sim.rng import RngFactory
from ..streaming.compression import LIVERENDER_LIKE
from ..workload.churn import DurationMixture, PlayerDayPlan, StartTimeModel
from ..workload.games import Game
from ..workload.population import Population, build_population
from .candidates import CandidateManager
from .columns import (KIND_CDN, KIND_CLOUD, KIND_SUPERNODE, SessionColumns,
                      SupernodeColumns)
from .config import SystemConfig
from .entities import ConnectionKind, Supernode
from .provisioning import Provisioner
from .selection import SupernodeDirectory

__all__ = ["SUPERNODE_MBPS_PER_SLOT", "KIND_BY_CODE", "Session",
           "SessionTable", "SimState",
           "build_supernode_pool", "build_cdn_sites", "deploy",
           "set_arrival_rates", "cloud_one_way_ms", "player_supernode_ms"]

#: Upload provisioned per supernode player slot (Mbit/s): enough for the
#: top Table-2 level on one stream plus headroom across slots.
SUPERNODE_MBPS_PER_SLOT = 3.0

#: SessionColumns integer code → ConnectionKind (columns.py sits below
#: entities in the layering, so the mapping lives here).
KIND_BY_CODE = {KIND_SUPERNODE: ConnectionKind.SUPERNODE,
                KIND_CLOUD: ConnectionKind.CLOUD,
                KIND_CDN: ConnectionKind.CDN}
_KIND_CODE = {kind: code for code, kind in KIND_BY_CODE.items()}


class Session(NamedTuple):
    """One join's outcome, handed from ``lifecycle.join`` to the sweep.

    Immutable: once :meth:`SessionTable.add` commits it, the session's
    facts live only in the table's columns, which migration and the
    fault handlers rewrite in place.
    """

    plan: PlayerDayPlan
    kind: ConnectionKind
    supernode_id: int | None
    downstream_one_way_ms: float
    upstream_one_way_ms: float
    join_latency_ms: float | None


class SessionTable:
    """The day's live sessions: one :class:`SessionColumns` row each.

    The only home of a live session's facts — serving supernode, kind,
    one-way latencies, play window and join latency are columns, read
    and written in place.  Membership is the insertion-ordered index
    (iteration, and with it scoring order) plus the ``active`` byte;
    only :meth:`add` and :meth:`pop` write either.
    """

    __slots__ = ("columns", "_order")

    def __init__(self, num_players: int) -> None:
        self.columns = SessionColumns(num_players)
        self._order: dict[int, None] = {}

    def add(self, session: Session, start: int, end: int) -> None:
        """Commit a joined session playing subcycles ``start..end``.

        Writes the full row: the slot may hold a dead earlier session.
        """
        row = session.plan.player
        cols = self.columns
        self._order[row] = None
        cols.active[row] = 1
        cols.supernode_id[row] = (-1 if session.supernode_id is None
                                  else session.supernode_id)
        cols.kind[row] = _KIND_CODE[session.kind]
        cols.latency_ms[row] = session.downstream_one_way_ms
        cols.upstream_ms[row] = session.upstream_one_way_ms
        cols.start_subcycle[row] = start
        cols.end_subcycle[row] = end
        cols.join_latency_ms[row] = (np.nan if session.join_latency_ms is None
                                     else session.join_latency_ms)

    def pop(self, player: int) -> None:
        """Take ``player``'s session out of service (no-op if absent)."""
        if player in self._order:
            del self._order[player]
            self.columns.active[player] = 0

    def fall_back_to_cloud(self, player: int) -> None:
        """The cloud streams ``player`` directly from now on."""
        cols = self.columns
        cols.kind[player] = KIND_CLOUD
        cols.supernode_id[player] = -1
        cols.latency_ms[player] = cols.upstream_ms[player]

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, player: int) -> bool:
        return player in self._order


class SimState:
    """The shared mutable state of one deployed gaming system."""

    def __init__(self, config: SystemConfig,
                 population: Population | None = None) -> None:
        self.config = config
        self.rng_factory = RngFactory(config.seed)
        self.supernode_join_latencies_ms: list[float] = []
        rng = self.rng_factory.stream("population")
        self.population = population or build_population(
            rng, config.num_players, config.num_datacenters,
            config.supernode_capable_share)
        self.topology = self.population.topology
        self.transport = TransportModel()

        # Fault injection (repro.faults).  Without a FaultPlan this is
        # the shared no-op injector: no RNG stream is created, no hook
        # fires, and every output stays bit-identical to a system built
        # before the subsystem existed (pinned by tests/faults).
        self.faults = build_injector(config.fault_plan)
        if config.fault_plan is not None:
            # Fail fast with an actionable message instead of deep in
            # the sweep: subcycles and datacenter targets must fit the
            # schedule/topology this plan is about to run against.
            config.fault_plan.validate_for(
                config.schedule.hours_per_day, config.num_datacenters)
        self.failure_detector = self.faults.detector
        self.retry_policy = self.faults.retry
        if (config.fault_plan is not None
                and config.fault_plan.ambient_loss_boost > 0.0):
            self.transport = self.transport.degraded(
                config.fault_plan.ambient_loss_boost)
        #: Accounting for out-of-band ``fail_supernodes`` calls (in-run
        #: injection accounts into ``RunResult.faults`` instead).
        self.fault_outcomes = FaultSummary()
        self.current_day = 0
        self.deployed_count = 0

        # LiveRender-style compression on direct cloud flows (§2).
        self.compression = (LIVERENDER_LIKE if config.cloud_compression
                            else None)

        # Contributor credit accounting (§3.1.1 incentives).
        self.credits = CreditLedger()

        # Reputation state.  Unrated supernodes get an optimistic prior
        # near an honest supernode's typical continuity, so players keep
        # exploring (see ReputationTable's docstring / DESIGN.md).
        self.ledger = RatingLedger()
        self.reputation = ReputationTable(self.ledger, config.aging_factor,
                                          neutral_prior=0.9)

        # Game-state datacenters (server latency substrate).
        self.datacenters = [
            Datacenter(i, num_servers=config.servers_per_datacenter)
            for i in range(config.num_datacenters)]
        self.nearest_dc = np.argmin(
            self.topology.player_datacenter_distances(), axis=1)
        # Columnar per-player cloud latency: the nearest-datacenter
        # one-way delay, precomputed once.  Row p is bit-identical to
        # topology.nearest_datacenter_one_way_ms(p) — the same
        # elementwise latency formula and the same min, evaluated over
        # the whole (n, d) matrix instead of per call; every join reads
        # its upstream delay from here.
        latency_model = self.topology.latency_model
        self.cloud_ms = np.min(latency_model.one_way_ms(
            self.topology.player_datacenter_distances(),
            self.topology.player_access_ms[:, None],
            latency_model.datacenter_access_ms), axis=1)

        # Infrastructure by mode.
        self.supernode_pool: list[Supernode] = []
        #: Dense columnar mirror of the pool (built alongside it);
        #: row i == supernode_id i.  Never checkpointed: immutable
        #: columns rebuild with the pool, and the availability byte is
        #: refreshed by the entity setters the restore path goes
        #: through.
        self.supernode_columns: SupernodeColumns | None = None
        self.live_supernodes: list[Supernode] = []
        self.directory: SupernodeDirectory | None = None
        self.cdn_coords = np.empty((0, 2))
        self.cdn_access = np.empty(0)
        self.live_ids: set[int] = set()
        if config.mode == "cloudfog":
            build_supernode_pool(self)
            count = min(config.num_supernodes, len(self.supernode_pool))
            deploy(self, self.supernode_pool[:count])
        elif config.mode == "cdn":
            build_cdn_sites(self)

        # Provisioner (dynamic provisioning strategy only).
        self.provisioner: Provisioner | None = None
        if (config.mode == "cloudfog"
                and config.strategies.dynamic_provisioning
                and self.supernode_pool):
            mean_capacity = float(np.mean(
                [sn.capacity for sn in self.supernode_pool]))
            self.provisioner = Provisioner(
                average_capacity=mean_capacity,
                epsilon=config.provisioning_epsilon,
                window_hours=config.provisioning_window_hours)

        #: Day-of-week participation weights (set by set_arrival_rates).
        self.weekly_weights = None

        # Churn state (§3.2.2): per-player candidate supernode lists
        # plus the sticky last-used supernode.
        self.candidates = CandidateManager(
            max_entries=config.candidate_count)
        self.sticky: dict[int, int] = {}
        self.games: dict[int, Game] = {}
        self.duration_mixture = DurationMixture()
        self.start_times = StartTimeModel()
        #: Optional override of daily participants (provisioning sweeps).
        self.daily_participants: int | None = None
        self.server_latency_cache: dict[int, float] = {}

        # Scenario seam (repro.scenarios): set-once overrides installed
        # by a scenario's ``configure`` hook before the run starts.
        # The null defaults leave every baseline sweep bit-identical.
        #: Extra sweep stages, run by ``stage_scenario`` each subcycle.
        self.scenario_stages: tuple = ()
        #: Per-game sampling weights ``{game name: weight}`` (None =
        #: the default social/permutation draw).
        self.game_weights: dict[str, float] | None = None
        #: Per-region start-subcycle shifts (timezone profiles), one
        #: entry per datacenter region, cycled when shorter.
        self.start_offsets: tuple | None = None
        #: Quality-ladder ceiling: sessions never stream above this
        #: ladder level (bandwidth-constrained thin clients).
        self.quality_ceiling: int | None = None


# ----------------------------------------------------------------------
# infrastructure construction
# ----------------------------------------------------------------------
def build_supernode_pool(state: SimState) -> None:
    """Create supernode entities for the qualified capable players.

    §3.1.1: "The nodes with sufficient hardware are chosen as
    supernodes" — a contributor's GPU must render several streams
    at once (integrated graphics do not qualify), and the player
    capacity is the tighter of the bandwidth-derived Pareto draw
    and the machine's render budget.  Capacity overrides (the
    Fig. 10/11 sweeps) bypass the render limit by design.
    """
    from ..rendering.capability import RenderCapability, sample_gpu_tiers

    config = state.config
    topology = state.topology
    rng = state.rng_factory.stream("supernodes")
    model = BandwidthModel()
    capable = state.population.capable_players()
    hosts = capable[rng.permutation(len(capable))]
    tiers = sample_gpu_tiers(rng, len(hosts))
    if config.supernode_capacity_override is not None:
        capacities = np.full(len(hosts),
                             config.supernode_capacity_override,
                             dtype=np.int64)
    else:
        capacities = model.sample_supernode_capacities(rng, len(hosts))
    sn_id = 0
    for host, capacity, tier in zip(hosts, capacities, tiers):
        host = int(host)
        render = RenderCapability(tier)
        if config.supernode_capacity_override is None:
            if not render.meets_supernode_requirement():
                continue
            capacity = min(int(capacity), render.render_capacity())
        # Supernodes have superior connections (§3.1.1): access delay
        # is the better of the host's last mile and a business line.
        access = float(min(topology.player_access_ms[host], 8.0))
        upload = (config.supernode_upload_override_mbps
                  if config.supernode_upload_override_mbps is not None
                  else float(capacity) * SUPERNODE_MBPS_PER_SLOT)
        state.supernode_pool.append(Supernode(
            supernode_id=sn_id,
            host_player=host,
            capacity=int(capacity),
            upload_mbps=float(upload),
            access_ms=access,
            x_km=float(topology.player_coords[host, 0]),
            y_km=float(topology.player_coords[host, 1]),
            gpu_tier=tier,
        ))
        sn_id += 1
    # Designate the §4.1 throttling classes over the whole pool.
    n = len(state.supernode_pool)
    n80 = int(n * config.throttle_80_share)
    n50 = int(n * config.throttle_50_share)
    marked = rng.permutation(n)
    for index in marked[:n80]:
        state.supernode_pool[int(index)].throttle_class = 0.8
    for index in marked[n80:n80 + n50]:
        state.supernode_pool[int(index)].throttle_class = 0.5
    # Bind the finished pool to its dense columnar mirror.
    state.supernode_columns = SupernodeColumns(n)
    for sn in state.supernode_pool:
        sn.bind_columns(state.supernode_columns)


def deploy(state: SimState, supernodes: list[Supernode]) -> None:
    """Set the live supernode set and rebuild the cloud's table."""
    obs.get_registry().gauge("repro_live_supernodes").set(len(supernodes))
    state.deployed_count = len(supernodes)
    live_ids = {sn.supernode_id for sn in supernodes}
    for sn in state.supernode_pool:
        sn.online = sn.supernode_id in live_ids
    state.live_supernodes = list(supernodes)
    state.live_ids = live_ids
    if state.directory is None:
        state.directory = SupernodeDirectory(state.topology,
                                             state.live_supernodes)
    else:
        state.directory.rebuild(state.live_supernodes)
    # Supernode join latency: one RTT to the cloud + registration.
    for sn in supernodes:
        rtt = 2.0 * float(state.cloud_ms[sn.host_player])
        state.supernode_join_latencies_ms.append(rtt + 20.0)


def build_cdn_sites(state: SimState) -> None:
    """CDN baseline: k edge sites at random player locations."""
    rng = state.rng_factory.stream("cdn")
    count = min(state.config.num_cdn_servers, state.topology.num_players)
    picks = rng.choice(state.topology.num_players, size=count,
                       replace=False)
    state.cdn_coords = state.topology.player_coords[picks].copy()
    state.cdn_access = np.full(count, 3.0)


# ----------------------------------------------------------------------
# workload knobs
# ----------------------------------------------------------------------
def set_arrival_rates(state: SimState, offpeak_per_min: float,
                      peak_per_min: float) -> None:
    """Drive daily participation from arrival rates (Figs. 13-15).

    Off-peak joiners arrive over 19 subcycles, peak joiners over 5;
    the start-time split follows from the two rates.
    """
    if offpeak_per_min < 0 or peak_per_min < 0:
        raise ValueError("arrival rates must be non-negative")
    offpeak_total = offpeak_per_min * 60.0 * 19.0
    peak_total = peak_per_min * 60.0 * 5.0
    total = offpeak_total + peak_total
    if total <= 0:
        raise ValueError("at least one arrival rate must be positive")
    state.daily_participants = int(round(total))
    state.start_times = StartTimeModel(offpeak_share=offpeak_total / total)
    # Arrival-driven participation follows the weekly pattern the
    # paper's forecasting premise rests on ([36, 37]): weekends run
    # hotter, midweek cooler.
    from ..forecast.diurnal import DiurnalPattern
    state.weekly_weights = DiurnalPattern().daily_weights


# ----------------------------------------------------------------------
# path latency queries (single formula: network.latency)
# ----------------------------------------------------------------------
def cloud_one_way_ms(state: SimState, player: int) -> float:
    """One-way latency from a player to its nearest datacenter."""
    return float(state.cloud_ms[player])


def player_supernode_ms(state: SimState, player: int,
                        sn: Supernode) -> float:
    """One-way latency from a player to a supernode host."""
    topology = state.topology
    return topology.latency_model.point_one_way_ms(
        topology.player_coords[player, 0], topology.player_coords[player, 1],
        sn.x_km, sn.y_km,
        topology.player_access_ms[player], sn.access_ms)
