"""Checkpoint/resume driver: save at day boundaries, resume bit-identically.

The :class:`Checkpointer` is a ``run_schedule`` day-end hook: wired via
``run_schedule(..., on_day_end=checkpointer.on_day_end)`` it rides the
:class:`~repro.sim.cycles.CycleScheduler`'s ``on_day_end`` hook chain
and snapshots the complete run state every ``every`` days.

:func:`resume_run` is the other half: load a checkpoint (a file, or a
directory's latest), rebuild state + accumulated results, and continue
the schedule from the next day.  Because every RNG stream is day-scoped
and the snapshot enumerates all cross-day mutable state
(:mod:`repro.persist.snapshot`), an interrupted-and-resumed run
reproduces the uninterrupted run's outputs bit for bit — pinned against
the golden digests by ``tests/persist``.

A save costs the current state plus the session rows added since the
previous save: ``RunResult.sessions`` only ever grows by ``extend``
and its records are frozen, so a :class:`Checkpointer` keeps the
canonical text of rows it already wrote (:class:`SessionEncoder`) and
encodes only the new ones.  The file bytes are those of a full
re-encode.

Save/load emit ``checkpoint_save`` / ``checkpoint_load`` spans and
``repro_checkpoint_{saves,loads}_total`` counters plus a
``repro_checkpoint_bytes`` gauge (no-ops unless :func:`repro.obs.enable`
ran, like all instrumentation).
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .. import obs
from ..core.accounting import RunResult
from ..core.state import SimState
from ..core.sweep import run_schedule
from .codec import (CheckpointError, EncodedPayload, canonical_json,
                    canonical_object, read_checkpoint, write_checkpoint)
from .snapshot import (capture_result_except_sessions, capture_state,
                       restore_result, restore_state, session_row)

__all__ = ["CHECKPOINT_GLOB", "checkpoint_path", "save_checkpoint",
           "load_checkpoint", "latest_checkpoint",
           "latest_valid_checkpoint", "LoadedCheckpoint",
           "SessionEncoder", "Checkpointer", "resume_run"]

#: File-name pattern of one day's checkpoint inside a checkpoint dir.
_NAME_TEMPLATE = "checkpoint-day{day:04d}.json"
CHECKPOINT_GLOB = "checkpoint-day*.json"
_NAME_RE = re.compile(r"checkpoint-day(\d+)\.json$")


def checkpoint_path(directory: str | Path, day: int) -> Path:
    """The canonical path of day ``day``'s checkpoint in a directory."""
    return Path(directory) / _NAME_TEMPLATE.format(day=day)


class SessionEncoder:
    """Append-only canonical encoding of a run's ``RunResult.sessions``.

    Keeps the canonical text of the rows already encoded as one chunk
    per :meth:`encode` call and encodes only the rows appended since.
    It starts over when handed a different ``RunResult``, a shorter
    list, or a list whose last cached position holds a different
    record object — anything but the sweep's ``extend``.
    """

    def __init__(self) -> None:
        self._reset(None)

    def _reset(self, result: RunResult | None) -> None:
        self._result = result
        self._chunks: list[str] = []
        self._count = 0
        self._last = None

    def encode(self, result: RunResult) -> list[str]:
        """Text pieces that concatenate to ``canonical_json`` of the
        session rows ``capture_result(result)`` would write."""
        sessions = result.sessions
        count = self._count
        if (result is not self._result or len(sessions) < count
                or (count and sessions[count - 1] is not self._last)):
            self._reset(result)
            count = 0
        if len(sessions) > count:
            rows = list(map(session_row, islice(sessions, count, None)))
            self._chunks.append(canonical_json(rows)[1:-1])
            self._count = len(sessions)
            self._last = sessions[-1]
        pieces = ["["]
        for chunk in self._chunks:
            if len(pieces) > 1:
                pieces.append(",")
            pieces.append(chunk)
        pieces.append("]")
        return pieces


@contextmanager
def _gc_paused():
    """Hold off the cyclic garbage collector for a block.

    A capture allocates hundreds of thousands of short-lived, acyclic
    containers; left on, the collector answers that burst with full
    collections whose cost follows the whole heap, not the snapshot.
    Nothing the block frees needs the collector.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save_checkpoint(path: str | Path, state: SimState, result: RunResult,
                    day: int, total_days: int, *,
                    sessions: SessionEncoder | None = None) -> Path:
    """Snapshot a run after ``day`` finished; returns the written path.

    The payload is ``{"day", "run", "state", "result"}`` and is encoded
    member by member: ``sessions`` (a fresh encoder unless one is
    passed, as :class:`Checkpointer` does) supplies the session rows.

    When telemetry is live (:func:`repro.obs.enable`), the accumulated
    time series and event log ride along under a ``telemetry`` key —
    the save event itself is emitted first so it is carried too — and
    :func:`load_checkpoint` reloads them, so a resumed run's telemetry
    matches the uninterrupted run's.  Disabled runs write the exact
    payload they always did.
    """
    with obs.get_tracer().span("checkpoint_save", day=day), _gc_paused():
        obs.get_events().emit("checkpoint_save", day=day, path=str(path))
        if sessions is None:
            sessions = SessionEncoder()
        result_members = {
            name: (canonical_json(value),) for name, value
            in capture_result_except_sessions(result).items()}
        result_members["sessions"] = sessions.encode(result)
        members = {
            "day": (canonical_json(day),),
            "run": (canonical_json({"total_days": total_days}),),
            "state": (canonical_json(capture_state(state)),),
            "result": canonical_object(result_members),
        }
        telemetry = obs.capture_telemetry()
        if telemetry is not None:
            members["telemetry"] = (canonical_json(telemetry),)
        written = write_checkpoint(
            path, EncodedPayload(day, canonical_object(members)))
    registry = obs.get_registry()
    registry.counter("repro_checkpoint_saves_total").inc()
    registry.gauge("repro_checkpoint_bytes").set(written.stat().st_size)
    return written


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A restored run: where it stopped and everything it carried."""

    day: int
    total_days: int
    state: SimState
    result: RunResult


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Read + verify a checkpoint and rebuild live state from it.

    Telemetry carried by the checkpoint is reloaded into the *live*
    observability objects (a no-op unless :func:`repro.obs.enable` ran
    before resuming), then a ``checkpoint_load`` event marks the seam.
    """
    with obs.get_tracer().span("checkpoint_load", path=str(path)):
        payload = read_checkpoint(path)
        loaded = LoadedCheckpoint(
            day=payload["day"],
            total_days=payload["run"]["total_days"],
            state=restore_state(payload["state"]),
            result=restore_result(payload["result"]))
        obs.restore_telemetry(payload.get("telemetry"))
        obs.get_events().emit("checkpoint_load", day=payload["day"],
                              path=str(path))
    obs.get_registry().counter("repro_checkpoint_loads_total").inc()
    return loaded


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-day checkpoint file in a directory, if any."""
    best: tuple[int, Path] | None = None
    for candidate in Path(directory).glob(CHECKPOINT_GLOB):
        match = _NAME_RE.search(candidate.name)
        if match is None:
            continue
        day = int(match.group(1))
        if best is None or day > best[0]:
            best = (day, candidate)
    return None if best is None else best[1]


def latest_valid_checkpoint(directory: str | Path
                            ) -> tuple[Path, dict] | None:
    """The newest checkpoint that passes manifest verification.

    Walks the directory's checkpoints from the highest day down,
    digest-verifying each (:func:`repro.persist.codec.read_checkpoint`);
    a corrupt or version-mismatched file is skipped — the previous
    day's snapshot becomes the restore point — and recorded as a
    ``checkpoint_corrupt`` event + counter.  Returns the winning
    ``(path, payload)`` pair, or None when nothing valid remains.
    """
    candidates: list[tuple[int, Path]] = []
    for candidate in Path(directory).glob(CHECKPOINT_GLOB):
        match = _NAME_RE.search(candidate.name)
        if match is not None:
            candidates.append((int(match.group(1)), candidate))
    for _, path in sorted(candidates, reverse=True):
        try:
            return path, read_checkpoint(path)
        except CheckpointError as exc:
            obs.get_registry().counter(
                "repro_checkpoint_corrupt_total").inc()
            obs.get_events().emit("checkpoint_corrupt", path=str(path),
                                  error=str(exc))
    return None


@dataclass
class Checkpointer:
    """A day-end hook that snapshots the run every ``every`` days.

    The cadence counts completed days: with ``every=k`` the snapshot
    lands after days k-1, 2k-1, … (i.e. every k-th completed day).
    A final day off the cadence is *not* snapshotted — crash recovery
    restarts from the last cadence point, which is the deal ``every``
    buys.

    Its :class:`SessionEncoder` carries the session rows from save to
    save, so each save encodes only the rows of the days since the
    previous one.
    """

    directory: Path
    every: int = 1
    #: Paths written by this checkpointer, in save order.
    written: list[Path] = field(default_factory=list, init=False)
    sessions: SessionEncoder = field(default_factory=SessionEncoder,
                                     init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, day: int) -> Path:
        return checkpoint_path(self.directory, day)

    def on_day_end(self, state: SimState, day: int, result: RunResult,
                   total_days: int) -> None:
        """The ``run_schedule``/``CycleScheduler`` day-end hook."""
        if (day + 1) % self.every == 0:
            self.written.append(save_checkpoint(
                self.path_for(day), state, result, day, total_days,
                sessions=self.sessions))


def resume_run(source: str | Path, days: int | None = None,
               checkpointer: Checkpointer | None = None) -> RunResult:
    """Resume an interrupted run from a checkpoint; return its result.

    ``source`` is a checkpoint file or a checkpoint directory (the
    latest checkpoint wins).  ``days`` overrides the run's total length
    — by default the resumed run finishes the originally planned
    schedule, which is what bit-identity requires (warm-up and
    measurement windows depend on the total).  Pass a ``checkpointer``
    to keep snapshotting the remaining days.

    Resuming a checkpoint of an already-finished run returns its stored
    result unchanged.
    """
    path = Path(source)
    if path.is_dir():
        found = latest_checkpoint(path)
        if found is None:
            raise CheckpointError(f"no checkpoints found in {path}")
        path = found
    loaded = load_checkpoint(path)
    total_days = loaded.total_days if days is None else days
    hook = None if checkpointer is None else checkpointer.on_day_end
    return run_schedule(loaded.state, total_days, result=loaded.result,
                        start_day=loaded.day + 1, on_day_end=hook)
