"""Reputation-based supernode selection — §3.2.

The protocol, exactly as the paper lays it out:

1. The cloud keeps a table of supernodes (IP → coordinates, available
   capacity).  A joining player asks the cloud, which returns a number
   of *physically close* supernodes with available capacity
   (:class:`SupernodeDirectory`).
2. The player measures transmission delay to each candidate and drops
   those above its threshold ``L_max`` — derived from its game genre's
   response-latency requirement.
3. The survivors are ordered by the player's own Eq.-7 reputation score
   (descending); the player asks each in turn whether it still has
   capacity and connects to the first that does.  CloudFog/B skips the
   reputation ordering and picks randomly among the qualified survivors.
4. No survivor ⇒ the player connects to the cloud directly.

The selection also reports a modelled *join latency* (Fig. 9): one RTT
to the cloud for the candidate list, one parallel probe round (the
slowest candidate's RTT) and the connect handshake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..network.topology import Topology
from ..reputation.scores import ReputationTable
from .entities import Supernode

__all__ = ["SupernodeDirectory", "SelectionOutcome", "select_supernode",
           "delay_threshold_ms"]


#: Pool-ranking prefix width per requested candidate: room for the
#: walk past the full supernodes of a saturated pool.
_RANKING_WIDTH = 8

#: float64 elements per ranking-build scratch buffer (1 MB).
_RANKING_SCRATCH = 131_072

#: Margin reserved for serialisation, jitter and server interaction when
#: deriving a delay threshold from a game's delivery deadline.
DELIVERY_MARGIN_MS = 12.0


def delay_threshold_ms(game_requirement_ms: float,
                       margin_ms: float = DELIVERY_MARGIN_MS) -> float:
    """L_max for a player: the one-way probe budget of its game.

    §3.2.1: the threshold "is determined based on the response latency
    requirement of the genre of its game".  A supernode qualifies when
    its one-way transmission delay leaves room inside the game's
    delivery deadline for serialisation, jitter and server-interaction
    latency (the margin).  Strict games end up accepting only very close
    supernodes, exactly the Fig. 4 coverage behaviour.
    """
    if game_requirement_ms <= 0:
        raise ValueError("game requirement must be positive")
    if margin_ms < 0:
        raise ValueError("margin must be non-negative")
    return max(5.0, game_requirement_ms - margin_ms)


class SupernodeDirectory:
    """The cloud's supernode table: locations and available capacities.

    When the supernodes share one columnar store (the usual case: one
    pool, one :class:`~repro.core.columns.SupernodeColumns`),
    :meth:`candidates_for` is a single vectorised pass — mask by the
    shared availability bytes, partition out the ``count`` nearest —
    whose cost is flat no matter how saturated the pool is.  Mixed or
    unbound supernode sets fall back to a uniform spatial grid: cells
    hold pool indices and the lookup expands square rings around the
    player's cell until the ``count`` nearest available supernodes are
    guaranteed found (every point outside rings ``0..r`` lies strictly
    farther than ``r`` cell widths from the player).

    The columnar lookup first walks a cached per-player ranking of the
    pool (:meth:`_ranked_candidates`); only a player it cannot answer
    for takes the full pass.
    """

    def __init__(self, topology: Topology, supernodes: list[Supernode]):
        self.topology = topology
        self._rebuild_state(supernodes)

    def __len__(self) -> int:
        return len(self.supernodes)

    def _rebuild_state(self, supernodes: list[Supernode]) -> None:
        """(Re)derive coordinate arrays and the spatial grid."""
        self.supernodes = supernodes
        n = len(supernodes)
        # Pool supernodes share one columnar store: the ring scan then
        # tests a single availability byte per entry instead of three
        # Python properties.  Mixed/unbound sets fall back to the
        # per-object has_capacity path.
        cols = supernodes[0].columns if supernodes else None
        if cols is not None and all(sn.columns is cols for sn in supernodes):
            self._avail: bytearray | None = cols.available
            self._gids: list[int] | None = [sn.supernode_id
                                            for sn in supernodes]
            # Live uint8 view of the shared availability bytes (same
            # memory — entity setters mutate it, the view sees it), plus
            # the directory-index → global-id gather for the batch scan.
            self._avail_np: np.ndarray | None = np.frombuffer(
                cols.available, dtype=np.uint8)
            self._gids_np: np.ndarray | None = np.array(self._gids,
                                                        dtype=np.intp)
            # Pool id -> listed supernode (None: not in this directory),
            # for the ranking walk.
            self._by_gid: list[Supernode | None] | None = \
                [None] * cols.size
            for sn in supernodes:
                self._by_gid[sn.supernode_id] = sn
            # The cached per-player pool ranking keys on the pool's
            # immutable coordinates: keep it across rebuilds of the
            # same pool, drop it when the store itself changes.
            if getattr(self, "_pool_cols", None) is not cols:
                self._pool_cols = cols
                self._ranking: np.ndarray | None = None
                self._ties: np.ndarray | None = None
        else:
            self._avail = None
            self._gids = None
            self._avail_np = None
            self._gids_np = None
            self._by_gid = None
            self._pool_cols = None
            self._ranking = None
            self._ties = None
        self._coords = np.array([[sn.x_km, sn.y_km] for sn in supernodes],
                                dtype=np.float64).reshape(n, 2)
        self._access = np.array([sn.access_ms for sn in supernodes],
                                dtype=np.float64)
        # Plain-float coordinate lists: the ring scan touches a handful
        # of entries per lookup, where Python floats beat numpy scalars.
        self._xs = self._coords[:, 0].tolist()
        self._ys = self._coords[:, 1].tolist()
        if n == 0:
            self._origin = (0.0, 0.0)
            self._cell_km = 1.0
            self._grid_nx = self._grid_ny = 0
            self._cells: dict[tuple[int, int], list[int]] = {}
            return
        mins = self._coords.min(axis=0)
        maxs = self._coords.max(axis=0)
        extent = float(max(maxs[0] - mins[0], maxs[1] - mins[1]))
        # ~2 supernodes per occupied cell keeps rings shallow without
        # fragmenting the pool across thousands of empty cells.
        per_axis = max(1, int(np.ceil(np.sqrt(n / 2.0))))
        self._cell_km = extent / per_axis if extent > 0 else 1.0
        self._origin = (float(mins[0]), float(mins[1]))
        self._grid_nx = int((maxs[0] - mins[0]) / self._cell_km) + 1
        self._grid_ny = int((maxs[1] - mins[1]) / self._cell_km) + 1
        cells: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            key = (min(self._grid_nx - 1,
                       int((self._xs[i] - self._origin[0]) / self._cell_km)),
                   min(self._grid_ny - 1,
                       int((self._ys[i] - self._origin[1]) / self._cell_km)))
            cells.setdefault(key, []).append(i)
        self._cells = cells

    def rebuild(self, supernodes: list[Supernode]) -> None:
        """Replace the supernode set (dynamic provisioning re-deploys)."""
        self._rebuild_state(supernodes)

    def _player_cell(self, player: int) -> tuple[float, float, int, int]:
        px = float(self.topology.player_coords[player, 0])
        py = float(self.topology.player_coords[player, 1])
        cx = min(self._grid_nx - 1,
                 max(0, int((px - self._origin[0]) // self._cell_km)))
        cy = min(self._grid_ny - 1,
                 max(0, int((py - self._origin[1]) // self._cell_km)))
        return px, py, cx, cy

    def _ring_cells(self, cx: int, cy: int, ring: int):
        """Grid cells at Chebyshev distance exactly ``ring`` from (cx, cy)."""
        nx, ny = self._grid_nx, self._grid_ny
        if ring == 0:
            yield (cx, cy)
            return
        x_lo, x_hi = cx - ring, cx + ring
        y_lo, y_hi = cy - ring, cy + ring
        for ix in range(max(0, x_lo), min(nx - 1, x_hi) + 1):
            if y_lo >= 0:
                yield (ix, y_lo)
            if y_hi < ny:
                yield (ix, y_hi)
        for iy in range(max(0, y_lo + 1), min(ny - 1, y_hi - 1) + 1):
            if x_lo >= 0:
                yield (x_lo, iy)
            if x_hi < nx:
                yield (x_hi, iy)

    def candidates_for(self, player: int, count: int) -> list[Supernode]:
        """The ``count`` closest supernodes with free capacity."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if not self.supernodes:
            return []
        if self._avail_np is not None:
            found = self._ranked_candidates(player, count)
            if found is not None:
                return found
            # Columnar pool: one vectorised pass over the whole table
            # beats the ring scan, whose cost degrades towards a full
            # linear probe exactly when it matters (peak hours, pool
            # nearly saturated).  Output is identical: the k nearest
            # available, ties broken by pool index (stable argsort on
            # equal distances == the (distance², index) tuple sort).
            px = float(self.topology.player_coords[player, 0])
            py = float(self.topology.player_coords[player, 1])
            idx = np.flatnonzero(self._avail_np[self._gids_np])
            if idx.size == 0:
                return []
            dx = self._coords[idx, 0] - px
            dy = self._coords[idx, 1] - py
            d2 = dx * dx + dy * dy
            supernodes = self.supernodes
            if idx.size > count:
                # O(n) select of the k nearest, then sort just those.
                # Everything tied with the k-th distance comes along so
                # the final (distance², index) order — ties broken by
                # ascending pool index, as ``idx`` is ascending — never
                # depends on how argpartition split equal keys.
                bound = np.partition(d2, count - 1)[count - 1]
                sel = np.flatnonzero(d2 <= bound)
                order = sel[np.argsort(d2[sel], kind="stable")[:count]]
            else:
                order = np.argsort(d2, kind="stable")
            return [supernodes[int(i)] for i in idx[order]]
        px, py, cx, cy = self._player_cell(player)
        max_ring = max(cx, self._grid_nx - 1 - cx,
                       cy, self._grid_ny - 1 - cy)
        supernodes = self.supernodes
        xs, ys = self._xs, self._ys
        cells = self._cells
        # (distance², pool index) pairs; plain tuples sort faster than a
        # numpy partition at the handful of entries a lookup touches.
        found: list[tuple[float, int]] = []
        ring = 0
        while ring <= max_ring:
            for key in self._ring_cells(cx, cy, ring):
                bucket = cells.get(key)
                if bucket is None:
                    continue
                for i in bucket:
                    if supernodes[i].has_capacity:
                        dx = xs[i] - px
                        dy = ys[i] - py
                        found.append((dx * dx + dy * dy, i))
            if len(found) >= count:
                covered = ring * self._cell_km
                found.sort()
                if found[count - 1][0] <= covered * covered:
                    break
            ring += 1
        obs.get_registry().histogram(
            "repro_directory_rings_scanned",
            buckets=(0, 1, 2, 3, 5, 8, 13, 21)).observe(ring)
        found.sort()
        return [supernodes[i] for _, i in found[:count]]

    def _ranked_candidates(self, player: int,
                           count: int) -> list[Supernode] | None:
        """The ``count`` nearest available supernodes, read off the
        player's cached pool ranking; None when the ranking cannot tell.

        Walks the ranking prefix, nearest first, keeping listed
        supernodes whose availability byte is set.  An untied
        prefix is strictly nearer than every pool row outside it, so
        the first ``count`` hits are exactly the full scan's answer, in
        its order, whatever the directory order; so is a shorter list
        when the prefix is the whole pool.  A player with an exact
        distance tie, or whose prefix runs out of free supernodes,
        gets None and the full scan.
        """
        ranking, ties = self._pool_ranking(count)
        if ties[player]:
            return None
        avail = self._avail
        by_gid = self._by_gid
        found: list[Supernode] = []
        for sid in ranking[player].tolist():
            if avail[sid]:
                sn = by_gid[sid]
                if sn is not None:
                    found.append(sn)
                    if len(found) == count:
                        return found
        return found if ranking.shape[1] == len(by_gid) else None

    def _pool_ranking(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Every player's nearest pool rows, nearest first.

        Returns ``(ranking, ties)``: an int32 ``(players, width)``
        prefix with ``width = min(pool, 8 * count)``, and per player
        whether two of its ``width + 1`` nearest rows lie at exactly the
        same distance — the row one past the prefix included, so an
        untied prefix is strictly nearer than every row outside it.
        Tied players always take the full pass, whose tie-break is the
        directory index; their rows' order among equals is arbitrary
        and never read.  Pool coordinates are
        immutable after construction, so the ranking is built once per
        pool — lazily, at the first lookup — and survives directory
        rebuilds: failures, heals and provisioning only flip
        availability bytes.
        """
        cols = self._pool_cols
        n = cols.size
        width = min(n, _RANKING_WIDTH * count)
        if self._ranking is not None and self._ranking.shape[1] >= width:
            return self._ranking, self._ties
        coords = self.topology.player_coords
        total = coords.shape[0]
        ranking = np.empty((total, width), dtype=np.int32)
        ties = np.empty(total, dtype=bool)
        # Chunked, reused scratch keeps the build's transient memory at
        # a few MB whatever the population.
        chunk = max(1, _RANKING_SCRATCH // n)
        bufx = np.empty((min(chunk, total), n), dtype=np.float64)
        bufy = np.empty((min(chunk, total), n), dtype=np.float64)
        everyone = np.arange(n, dtype=np.int32)
        keep = min(n, width + 1)
        for lo in range(0, total, chunk):
            hi = min(total, lo + chunk)
            dx = bufx[:hi - lo]
            dy = bufy[:hi - lo]
            np.subtract(coords[lo:hi, 0, None], cols.x_km[None, :], out=dx)
            np.multiply(dx, dx, out=dx)
            np.subtract(coords[lo:hi, 1, None], cols.y_km[None, :], out=dy)
            np.multiply(dy, dy, out=dy)
            d2 = np.add(dx, dy, out=dx)
            if n > keep:
                part = np.argpartition(d2, keep - 1, axis=1)[:, :keep]
                d2 = np.take_along_axis(d2, part, axis=1)
            else:
                part = np.broadcast_to(everyone, (hi - lo, n))
            order = np.argsort(d2, axis=1)
            ranking[lo:hi] = np.take_along_axis(part, order[:, :width],
                                                axis=1)
            d2 = np.take_along_axis(d2, order, axis=1)
            ties[lo:hi] = (d2[:, 1:] == d2[:, :-1]).any(axis=1)
        self._ranking = ranking
        self._ties = ties
        return ranking, ties

    def probe_delays_ms(self, player: int,
                        candidates: list[Supernode]) -> np.ndarray:
        """One-way transmission delays from the player to each candidate.

        Scalar mirror of ``players_to_points_one_way_ms`` for the
        handful of candidates a join probes.  Operand order matches the
        vectorised path bit for bit: ``pairwise_distances`` squares via
        numpy's x*x fast path (mirrored as ``dx*dx``, never ``dx**2``,
        which would round through libm pow) under a correctly rounded
        sqrt, and ``one_way_ms`` adds left-associatively.
        """
        if not candidates:
            return np.empty(0, dtype=np.float64)
        topo = self.topology
        px = float(topo.player_coords[player, 0])
        py = float(topo.player_coords[player, 1])
        pa = float(topo.player_access_ms[player])
        mskm = topo.latency_model.ms_per_km
        out = np.empty(len(candidates), dtype=np.float64)
        for j, sn in enumerate(candidates):
            dx = px - sn.x_km
            dy = py - sn.y_km
            out[j] = pa + mskm * math.sqrt(dx * dx + dy * dy) + sn.access_ms
        return out


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one player's supernode selection.

    ``supernode_id`` is the *global* supernode id (stable across
    provisioning redeployments), not a directory index.  ``qualified``
    lists every candidate that passed the delay filter — the player
    remembers them as its §3.2.2 candidate supernode list.
    """

    supernode_id: int | None          # None => fall back to the cloud
    downstream_one_way_ms: float
    join_latency_ms: float
    candidates_probed: int
    qualified: tuple[tuple[int, float], ...] = ()

    @property
    def used_cloud(self) -> bool:
        return self.supernode_id is None


def select_supernode(
    player: int,
    directory: SupernodeDirectory,
    l_max_ms: float,
    rng: np.random.Generator,
    reputation: ReputationTable | None = None,
    candidate_count: int = 8,
    cloud_rtt_ms: float = 60.0,
    handshake_ms: float = 10.0,
    exclude: set[int] | None = None,
) -> SelectionOutcome:
    """Run the full §3.2 selection for one player.

    ``reputation`` None reproduces CloudFog/B's random pick among the
    qualified candidates; otherwise candidates are tried in descending
    Eq.-7 score order (ties keep the delay ordering, so cold-start
    players effectively prefer closer supernodes).

    ``exclude`` drops specific supernode ids before probing — retry
    rounds after a failed migration pass the nodes that just refused
    or crashed, so a backoff retry cannot re-ask a known-bad node.
    """
    if l_max_ms <= 0:
        raise ValueError("l_max_ms must be positive")
    candidates = directory.candidates_for(player, candidate_count)
    if exclude:
        candidates = [sn for sn in candidates
                      if sn.supernode_id not in exclude]
    delays = directory.probe_delays_ms(player, candidates).tolist()

    join_latency = cloud_rtt_ms
    if candidates:
        join_latency += 2.0 * max(delays)  # parallel probe RTTs

    qualified = [(sn, delay) for sn, delay in zip(candidates, delays)
                 if delay <= l_max_ms]
    qualified_ids = tuple((sn.supernode_id, delay)
                          for sn, delay in qualified)
    if not qualified:
        return SelectionOutcome(None, 0.0, join_latency, len(candidates))

    if reputation is not None:
        # Descending reputation; delay breaks ties so cold-start players
        # effectively prefer closer supernodes.
        ordered = sorted(
            qualified,
            key=lambda item: (-reputation.score(
                player, item[0].supernode_id), item[1]))
    else:
        indices = rng.permutation(len(qualified))
        ordered = [qualified[int(i)] for i in indices]

    # Sequential capacity ask (§3.2.2): a candidate may have filled up
    # between the cloud's answer and now.
    for supernode, delay in ordered:
        if supernode.has_capacity:
            supernode.connect(player)
            join_latency += handshake_ms + delay
            return SelectionOutcome(supernode.supernode_id, delay,
                                    join_latency, len(candidates),
                                    qualified_ids)
    return SelectionOutcome(None, 0.0, join_latency, len(candidates),
                            qualified_ids)
