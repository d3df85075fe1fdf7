"""Tests for the versioned on-disk checkpoint format."""

import json

import pytest

from repro.persist import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    EncodedPayload,
    canonical_json,
    canonical_object,
    payload_digest,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import FORMAT_NAME, SCHEMA_VERSION

PAYLOAD = {"day": 3, "state": {"seed": 7, "values": [1.5, 2.25]}}


def test_write_read_round_trip(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    assert read_checkpoint(path) == PAYLOAD


def test_document_structure(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    assert document["format"] == FORMAT_NAME
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["manifest"]["day"] == 3
    assert document["manifest"]["payload_sha256"] == payload_digest(PAYLOAD)


def test_floats_round_trip_exactly(tmp_path):
    """JSON uses repr-based shortest round-trip: no ULP drift."""
    values = [0.1, 1e-300, 123456.789012345, 2.0 ** -52]
    path = write_checkpoint(tmp_path / "ck.json", {"day": 0, "v": values})
    restored = read_checkpoint(path)["v"]
    assert all(a == b for a, b in zip(restored, values))


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_write_requires_day():
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", {"state": {}})
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", {"day": -1})
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", {"day": "3"})


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "nope.json")


def test_invalid_json_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    path.write_text(path.read_text()[:40])  # simulate a truncated write
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_wrong_format_is_corrupt(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "payload": {}}))
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)
    path.write_text(json.dumps([1, 2, 3]))  # not even an object
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_schema_version_mismatch(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    document["schema_version"] = 999
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointVersionError):
        read_checkpoint(path)


def test_tampered_payload_is_corrupt(tmp_path):
    """Editing any payload byte without re-digesting must be caught."""
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    document["payload"]["state"]["seed"] = 8
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
        read_checkpoint(path)


def test_manifest_day_disagreement_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    document["manifest"]["day"] = 9
    # Keep the digest valid so only the day cross-check can fire.
    document["manifest"]["payload_sha256"] = payload_digest(
        document["payload"])
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointCorruptError, match="disagrees"):
        read_checkpoint(path)


def test_write_is_atomic(tmp_path):
    """A successful write leaves no temp file; rewriting replaces."""
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    write_checkpoint(path, {"day": 3, "state": {"seed": 8}})
    assert list(tmp_path.iterdir()) == [path]
    assert read_checkpoint(path)["state"]["seed"] == 8


def test_written_document_is_canonical_json(tmp_path):
    """Sorted keys, no whitespace: the file is its own canonical form."""
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    text = path.read_text()
    assert text == canonical_json(json.loads(text))
    assert text.startswith('{"format":"repro-checkpoint","manifest":')


@pytest.mark.parametrize("value", [
    {}, {"b": [1, 2.5], "a": {"z": None, "y": "é"}, "c": True}, PAYLOAD])
def test_canonical_object_joins_members_like_canonical_json(value):
    members = {key: (canonical_json(item),) for key, item in value.items()}
    assert "".join(canonical_object(members)) == canonical_json(value)


def test_encoded_payload_writes_the_same_bytes_as_its_dict(tmp_path):
    pieces = canonical_object({
        "day": ("3",),
        "state": ['{"seed":7,', '"values":[1.5,2.25]}'],
    })
    encoded = write_checkpoint(tmp_path / "encoded.json",
                               EncodedPayload(3, pieces))
    plain = write_checkpoint(tmp_path / "plain.json", PAYLOAD)
    assert encoded.read_bytes() == plain.read_bytes()
    assert read_checkpoint(encoded) == PAYLOAD


def test_encoded_payload_requires_day():
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", EncodedPayload(-1, ("{}",)))


def test_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    """A write interrupted before the rename leaves neither a temp file
    nor a damaged previous checkpoint."""
    from repro.persist import codec

    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)

    class Interrupted(Exception):
        pass

    def interrupt(src, dst):
        raise Interrupted

    monkeypatch.setattr(codec.os, "replace", interrupt)
    with pytest.raises(Interrupted):
        write_checkpoint(path, {"day": 4})
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [path]
    assert read_checkpoint(path) == PAYLOAD
