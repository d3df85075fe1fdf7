"""Dense columnar entity tables: parallel typed arrays over entity ids.

Two stores live here, with different ownership:

* :class:`SupernodeColumns` mirrors the supernode pool for the batch
  readers (directory scans, vectorised selection, probe latency math).
  The :class:`~repro.core.entities.Supernode` object keeps its API and
  is the only writer: coordinates are written once when a pool entity
  binds, and the derived ``available`` byte (``online and load <
  capacity``) is refreshed by every entity mutation that can change
  it, so readers test one byte instead of chasing Python properties.
* :class:`SessionColumns` *is* the day's session state: there is no
  per-session object behind it.  :class:`~repro.core.state.
  SessionTable` writes a row when a join commits and clears its
  ``active`` byte when the session leaves service; migration and the
  fault handlers rewrite the serving supernode, kind and latency
  columns in place; scoring and the vectorised sweep stages read them.
  It is the one record of who is on which supernode (``active &
  (supernode_id == sid)``); a supernode keeps only the count.

Neither store is checkpointed — :mod:`repro.persist.snapshot` restores
the mutable supernode state through the entity setters, which refresh
``available`` as a side effect, and every session leaves service when
its day ends, so no row carries a fact across a day boundary.
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

    __slots__ = ("size", "x_km", "y_km", "available")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = size
        self.x_km = np.zeros(size, dtype=np.float64)
        self.y_km = np.zeros(size, dtype=np.float64)
        #: 1 where the supernode is online with a free slot: the hot
        #: byte the directory's candidate scan tests per entry.
        self.available = bytearray(size)


class SessionColumns:
    """Parallel typed arrays over ``player`` id for one sweep day.

    Row ``i`` holds player ``i``'s session, in service while
    ``active[i] == 1`` — or an ended one, or dead garbage.  Sessions
    never outlive a day, so every ``sweep_day`` builds a new store.
    """

    __slots__ = ("size", "active", "supernode_id", "kind", "latency_ms",
                 "upstream_ms", "start_subcycle", "end_subcycle",
                 "join_latency_ms")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = size
        #: 1 while the player's session is in service.
        self.active = np.zeros(size, dtype=np.uint8)
        #: Serving supernode row, or -1 (cloud/CDN/none).
        self.supernode_id = np.full(size, -1, dtype=np.int64)
        #: ``KIND_*`` code of the connection, or ``KIND_NONE``.
        self.kind = np.full(size, KIND_NONE, dtype=np.int8)
        #: Downstream one-way latency (ms).
        self.latency_ms = np.zeros(size, dtype=np.float64)
        #: Upstream one-way latency (ms).
        self.upstream_ms = np.zeros(size, dtype=np.float64)
        #: Inclusive play window in subcycles, set once at join.
        self.start_subcycle = np.zeros(size, dtype=np.int64)
        self.end_subcycle = np.zeros(size, dtype=np.int64)
        #: Join latency (ms); NaN when the join was sticky.
        self.join_latency_ms = np.full(size, np.nan, dtype=np.float64)
