"""The versioned on-disk checkpoint format.

One checkpoint is one canonical JSON document (sorted keys, no
whitespace; wrapped here for reading)::

    {"format":"repro-checkpoint",
     "manifest":{"day":3,"payload_sha256":"<hex digest>"},
     "payload":{...},"schema_version":2}

The manifest digest is the SHA-256 of the *canonical* JSON encoding of
the payload (sorted keys, no whitespace), so any byte of drift —
truncation, a hand-edited field, a partially written file — is caught
at load time before the simulation state is rebuilt.

The writer emits the whole document as canonical JSON in one pass: the
payload text is produced once (or arrives already encoded, as pieces,
from :class:`EncodedPayload`), hashed piece by piece, and streamed to
disk between the document's other members — no whole-document string
is ever built.  The reader accepts any whitespace and key order (files
written by earlier builds used ``json.dumps(document, sort_keys=True)``
with default separators) and re-derives the canonical digest itself.

JSON is a deliberate choice over pickle: ``json`` round-trips every
finite Python float exactly (``repr``-based shortest round-trip), the
files are inspectable and diffable, and loading one cannot execute
code.  The restore side rebuilds live objects from the payload through
constructors, never by unpickling.

Failure taxonomy::

    CheckpointError            anything checkpoint-related (base)
    ├── CheckpointVersionError schema newer/older than this code
    └── CheckpointCorruptError not a checkpoint / digest mismatch /
                               malformed or inconsistent content

Writes are atomic (temp file + ``os.replace``) so an interrupted save
never leaves a half-written checkpoint behind — the previous one stays
valid, and a failed write removes its temp file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FORMAT_NAME", "SCHEMA_VERSION", "CheckpointError",
           "CheckpointVersionError", "CheckpointCorruptError",
           "EncodedPayload", "canonical_json", "canonical_object",
           "payload_digest", "write_checkpoint", "read_checkpoint"]

#: Identifies a file as one of ours regardless of schema evolution.
FORMAT_NAME = "repro-checkpoint"

#: Bump on any payload layout change; readers reject other versions.
#: v2: FaultSummary grew the correlated-loss counters (shed, drained,
#: joins_shed) — a v1 reader would drop them silently on restore.
SCHEMA_VERSION = 2


class CheckpointError(RuntimeError):
    """Base class of every checkpoint persistence failure."""


class CheckpointVersionError(CheckpointError):
    """The file's schema version is not the one this code writes."""


class CheckpointCorruptError(CheckpointError):
    """The file is not a checkpoint, or its content fails validation."""


def canonical_json(value) -> str:
    """The canonical encoding the manifest digest is computed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: dict) -> str:
    """SHA-256 hex digest of a payload's canonical encoding."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def canonical_object(members: Mapping[str, Sequence[str]]) -> list[str]:
    """Text pieces of a canonical JSON object whose member values are
    already canonical text.

    Each value is a sequence of pieces that concatenate to the member's
    canonical encoding; the result concatenates to
    ``canonical_json`` of the object, members in sorted key order.
    """
    pieces: list[str] = []
    for key in sorted(members):
        pieces.append(("," if pieces else "{") + json.dumps(key) + ":")
        pieces.extend(members[key])
    pieces.append("}" if pieces else "{}")
    return pieces


@dataclass(frozen=True)
class EncodedPayload:
    """A payload already in canonical text, split into pieces.

    ``"".join(pieces)`` must equal ``canonical_json(payload)`` of the
    payload it stands for, and ``day`` its ``"day"`` member.
    """

    day: int
    pieces: Sequence[str]


def write_checkpoint(path: str | Path,
                     payload: dict | EncodedPayload) -> Path:
    """Write one schema-stamped, digest-manifested checkpoint atomically.

    ``payload`` must carry a non-negative integer ``"day"`` (the day the
    snapshot was taken at the end of); it is mirrored into the manifest
    so tooling can list checkpoints without hashing payloads.  A dict is
    encoded once here; an :class:`EncodedPayload` is written as given.
    """
    encoded = isinstance(payload, EncodedPayload)
    day = payload.day if encoded else payload.get("day")
    if not isinstance(day, int) or day < 0:
        raise CheckpointError(
            f"payload must carry a non-negative integer 'day', got {day!r}")
    pieces = payload.pieces if encoded else (canonical_json(payload),)
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode())
    manifest = {"day": day, "payload_sha256": digest.hexdigest()}
    document = canonical_object({
        "format": (canonical_json(FORMAT_NAME),),
        "manifest": (canonical_json(manifest),),
        "payload": pieces,
        "schema_version": (canonical_json(SCHEMA_VERSION),),
    })
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as out:
            for piece in document:
                out.write(piece.encode())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return path


def read_checkpoint(path: str | Path) -> dict:
    """Load, schema-check and digest-verify a checkpoint; return its payload."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(
            f"{path} is not valid JSON (truncated write?): {exc}") from exc
    if not isinstance(document, dict) \
            or document.get("format") != FORMAT_NAME:
        raise CheckpointCorruptError(
            f"{path} is not a {FORMAT_NAME} file")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointVersionError(
            f"{path} has schema version {version!r}; this build reads "
            f"only version {SCHEMA_VERSION}")
    manifest = document.get("manifest")
    payload = document.get("payload")
    if not isinstance(manifest, dict) or not isinstance(payload, dict):
        raise CheckpointCorruptError(
            f"{path} lacks a manifest/payload pair")
    digest = payload_digest(payload)
    if digest != manifest.get("payload_sha256"):
        raise CheckpointCorruptError(
            f"{path}: payload digest mismatch — expected "
            f"{manifest.get('payload_sha256')!r}, computed {digest!r}")
    if manifest.get("day") != payload.get("day"):
        raise CheckpointCorruptError(
            f"{path}: manifest day {manifest.get('day')!r} disagrees "
            f"with payload day {payload.get('day')!r}")
    return payload
