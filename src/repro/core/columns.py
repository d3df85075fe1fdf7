"""Dense columnar entity tables: parallel typed arrays over entity ids.

The object layer (:class:`~repro.core.entities.Supernode`,
:class:`~repro.core.state.Session`) keeps the per-entity API the
pipeline mutates — ``connect``/``disconnect``/``fail`` and the scalar
attribute reads the lifecycle stages make a handful of times per
session.  The batch layer (directory scans, vectorised selection,
probe latency math, the vectorised sweep stages) instead reads these
columns: one contiguous array per field, indexed by entity id.

Two kinds of columns coexist:

* **Immutable columns** (coordinates, access delay, upload, capacity;
  a session's committed rate and play window) are written once when an
  entity binds to the store and never change — the object keeps its
  own copy for scalar reads, so there is no dual-write hazard.
* **Derived mutable columns** — the ``available`` byte per supernode
  (``online and load < capacity``), and a session's mutable fields
  (``supernode_id``/``kind``/latency mirrors, the ``active`` byte,
  the ``degraded`` flag) — are refreshed by the owning entity at every
  mutation that can change them.  Batch readers (the directory's
  ranking walk and full pass, the vectorised departure/fault masks,
  shard planners) test one byte instead of chasing Python properties
  per entry.

The stores are plain data: no methods mutate them except the owning
entities.  They are *not* checkpointed — :mod:`repro.persist.snapshot`
restores the mutable entity state through the entity setters, which
refresh the derived columns as a side effect (and sessions never cross
a day boundary at all, so a day's :class:`SessionColumns` dies with
its sweep).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SupernodeColumns", "SessionColumns", "KIND_NONE",
           "KIND_SUPERNODE", "KIND_CLOUD", "KIND_CDN"]

#: Integer codes of :class:`~repro.core.entities.ConnectionKind` in
#: :attr:`SessionColumns.kind` (this module sits below ``entities`` in
#: the layering, so the enum cannot be imported here — ``core.state``
#: owns the enum → code mapping).
KIND_NONE = -1
KIND_SUPERNODE = 0
KIND_CLOUD = 1
KIND_CDN = 2


class SupernodeColumns:
    """Parallel typed arrays over ``supernode_id`` for one pool.

    Row ``i`` describes the supernode with ``supernode_id == i`` (the
    pool index — an invariant of ``build_supernode_pool``, re-checked
    on checkpoint restore).
    """

    __slots__ = ("size", "x_km", "y_km", "access_ms", "upload_mbps",
                 "capacity", "available")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = size
        self.x_km = np.zeros(size, dtype=np.float64)
        self.y_km = np.zeros(size, dtype=np.float64)
        self.access_ms = np.zeros(size, dtype=np.float64)
        self.upload_mbps = np.zeros(size, dtype=np.float64)
        self.capacity = np.zeros(size, dtype=np.int64)
        #: 1 where the supernode is online with a free slot: the hot
        #: byte the directory's candidate scan tests per entry.
        self.available = bytearray(size)


class SessionColumns:
    """Parallel typed arrays over ``player`` id for one sweep day.

    Row ``i`` mirrors the live :class:`~repro.core.state.Session` of
    player ``i`` (``active[i] == 1``) or is dead garbage from an
    earlier session (``active[i] == 0``) — sessions never outlive a
    day, so the table is rebuilt by every ``sweep_day``.  The owning
    ``Session`` object stays the source of truth for scalar reads; the
    columns exist for the batch masks the vectorised sweep stages and
    fault handlers take (departure selection, window overlap, kind and
    supernode filters).
    """

    __slots__ = ("size", "active", "supernode_id", "kind", "rate_mbps",
                 "latency_ms", "upstream_ms", "start_subcycle",
                 "end_subcycle", "join_latency_ms", "degraded")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = size
        #: 1 while the player's session is live this day.
        self.active = np.zeros(size, dtype=np.uint8)
        #: Serving supernode row, or -1 (cloud/CDN/none).
        self.supernode_id = np.full(size, -1, dtype=np.int64)
        #: ``KIND_*`` code of the connection, or ``KIND_NONE``.
        self.kind = np.full(size, KIND_NONE, dtype=np.int8)
        #: Raw game stream rate committed at join (Mbps).
        self.rate_mbps = np.zeros(size, dtype=np.float64)
        #: Downstream one-way latency mirror (ms).
        self.latency_ms = np.zeros(size, dtype=np.float64)
        #: Upstream one-way latency mirror (ms).
        self.upstream_ms = np.zeros(size, dtype=np.float64)
        #: Inclusive play window in subcycles, set once at bind.
        self.start_subcycle = np.zeros(size, dtype=np.int64)
        self.end_subcycle = np.zeros(size, dtype=np.int64)
        #: Join latency mirror (ms); NaN when the join was sticky.
        self.join_latency_ms = np.full(size, np.nan, dtype=np.float64)
        #: 1 once a fault pushed the session from fog to cloud.
        self.degraded = np.zeros(size, dtype=np.uint8)
