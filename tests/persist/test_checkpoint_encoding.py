"""Checkpoint bytes: one-pass canonical documents and append-only
session encoding.

A :class:`~repro.persist.checkpoint.Checkpointer` encodes only the
session rows added since its previous save, and the writer streams the
document instead of re-encoding it.  Neither may change a byte: every
file's payload text must be ``canonical_json`` of the payload a full
capture builds, under the digest that payload gives — for a plain run,
for a resumed run whose encoder starts from a restored ``RunResult``,
and for one checkpointer reused across two runs.
"""

import json
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core import CloudFogSystem
from repro.core.accounting import RunResult, SessionRecord
from repro.core.config import cloudfog_advanced
from repro.core.entities import ConnectionKind
from repro.persist import (
    Checkpointer,
    canonical_json,
    capture_result,
    capture_state,
    latest_valid_checkpoint,
    payload_digest,
    read_checkpoint,
    resume_run,
)
from repro.persist import checkpoint as checkpoint_module
from repro.persist import codec
from repro.persist.checkpoint import SessionEncoder
from repro.sim.cycles import Schedule

from ..faults.regen_golden import CHAOS_PLAN
from ..helpers.golden import fault_summary_digest, run_result_digest

#: No warm-up, so every day adds session rows and a save's session
#: text spans several cached chunks.
CHAOS = cloudfog_advanced(num_players=120, num_supernodes=8, seed=3,
                          schedule=Schedule(warmup_days=0),
                          fault_plan=CHAOS_PLAN)
DAYS = 3


def run_digests(result):
    return (run_result_digest(result), fault_summary_digest(result.faults))


@pytest.fixture
def telemetry():
    """Telemetry on, so the ``telemetry`` payload member rides along."""
    obs.enable()
    yield
    obs.disable()


def reference_payload(state, result, day, total_days) -> dict:
    """The payload a full capture builds, the way saves once built it."""
    payload = {
        "day": day,
        "run": {"total_days": total_days},
        "state": capture_state(state),
        "result": capture_result(result),
    }
    telemetry = obs.capture_telemetry()
    if telemetry is not None:
        payload["telemetry"] = telemetry
    return payload


@dataclass
class PinnedCheckpointer(Checkpointer):
    """Checks each file it writes against a full reference capture,
    right after the save and before the run moves on."""

    checked: list[int] = field(default_factory=list, init=False)

    def on_day_end(self, state, day, result, total_days) -> None:
        saved = len(self.written)
        super().on_day_end(state, day, result, total_days)
        if len(self.written) == saved:
            return
        # Taken after the save, so the telemetry holds its save event.
        reference = reference_payload(state, result, day, total_days)
        text = self.written[-1].read_text()
        start = text.index('"payload":') + len('"payload":')
        end = text.rindex(',"schema_version"')
        assert text[start:end] == canonical_json(reference)
        manifest = json.loads(text)["manifest"]
        assert manifest == {"day": day,
                            "payload_sha256": payload_digest(reference)}
        assert text == canonical_json(json.loads(text))
        self.checked.append(day)


def test_plain_run_files_match_a_full_capture(tmp_path, telemetry):
    hook = PinnedCheckpointer(tmp_path, every=1)
    CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=hook.on_day_end)
    assert hook.checked == list(range(DAYS))


def test_resumed_run_files_match_a_full_capture(tmp_path, telemetry):
    first = Checkpointer(tmp_path / "first", every=1)
    expected = CloudFogSystem(CHAOS).run(days=DAYS,
                                         on_day_end=first.on_day_end)
    rest = PinnedCheckpointer(tmp_path / "rest", every=1)
    resumed = resume_run(first.path_for(0), checkpointer=rest)
    assert rest.checked == list(range(1, DAYS))
    assert run_digests(resumed) == run_digests(expected)
    # The rewritten files resume like the originals.
    assert run_digests(resume_run(rest.path_for(1))) == \
        run_digests(expected)


def test_one_checkpointer_over_two_runs_resets(tmp_path, telemetry):
    hook = PinnedCheckpointer(tmp_path, every=1)
    CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=hook.on_day_end)
    second = CloudFogSystem(CHAOS.with_(seed=4)).run(
        days=DAYS - 1, on_day_end=hook.on_day_end)
    assert hook.checked == list(range(DAYS)) + list(range(DAYS - 1))
    stored = read_checkpoint(hook.path_for(DAYS - 2))["result"]["sessions"]
    assert len(stored) == len(second.sessions)


def test_each_session_row_is_encoded_once_per_run(tmp_path, monkeypatch):
    """Saving every day encodes len(sessions) rows in total, not the
    sum of the per-day totals."""
    built = []

    def counting_row(record, _row=checkpoint_module.session_row):
        built.append(record)
        return _row(record)

    monkeypatch.setattr(checkpoint_module, "session_row", counting_row)
    hook = Checkpointer(tmp_path, every=1)
    days = 4
    result = CloudFogSystem(CHAOS).run(days=days,
                                       on_day_end=hook.on_day_end)
    assert len(hook.written) == days
    assert {record.day for record in result.sessions} == set(range(days))
    assert len(built) == len(result.sessions)
    assert len({id(record) for record in built}) == len(built)


def _record(player: int) -> SessionRecord:
    return SessionRecord(player=player, day=0, game="g",
                         kind=ConnectionKind.CLOUD, target=0,
                         response_latency_ms=10.5, server_latency_ms=1.25,
                         continuity=0.9, satisfied=True,
                         join_latency_ms=None)


def test_session_encoder_restarts_on_anything_but_an_append():
    """Shrinking, swapping the last cached record, or handing over a
    different result re-encodes from scratch; appends reuse the cache."""
    encoder = SessionEncoder()
    result = RunResult()

    def check():
        pieces = encoder.encode(result)
        assert "".join(pieces) == \
            canonical_json(capture_result(result)["sessions"])

    check()                                       # empty
    result.sessions.extend(_record(p) for p in range(3))
    check()
    check()                                       # nothing new
    result.sessions.append(_record(3))
    check()
    result.sessions[-1] = _record(99)             # same length, new last
    check()
    del result.sessions[1:]                       # shorter
    check()
    result.sessions.append(_record(8))
    check()
    # A different result, even one holding the last cached record at
    # the same position.
    result = RunResult(sessions=[_record(7), result.sessions[-1]])
    check()


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """A save that fails before the rename removes its temp file, and
    the previous day's checkpoint stays the restore point."""
    hook = Checkpointer(tmp_path, every=1)

    def refuse(src, dst):
        raise OSError("disk full")

    def failing_hook(state, day, result, total_days):
        if day == 1:
            monkeypatch.setattr(codec, "os", SimpleNamespace(replace=refuse))
        hook.on_day_end(state, day, result, total_days)

    with pytest.raises(OSError, match="disk full"):
        CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=failing_hook)
    assert [p.name for p in tmp_path.iterdir()] == \
        ["checkpoint-day0000.json"]
    path, payload = latest_valid_checkpoint(tmp_path)
    assert path == hook.path_for(0)
    assert payload["day"] == 0


def test_previous_layout_still_loads_and_resumes(tmp_path):
    """Earlier builds wrote ``json.dumps(document, sort_keys=True)``
    with default separators; such a file must load and resume
    bit-identically."""
    hook = Checkpointer(tmp_path / "run", every=1)
    expected = CloudFogSystem(CHAOS).run(days=DAYS,
                                         on_day_end=hook.on_day_end)
    payload = read_checkpoint(hook.path_for(0))
    document = {
        "format": codec.FORMAT_NAME,
        "schema_version": codec.SCHEMA_VERSION,
        "manifest": {"day": 0, "payload_sha256": payload_digest(payload)},
        "payload": payload,
    }
    old = tmp_path / "checkpoint-day0000.json"
    old.write_text(json.dumps(document, sort_keys=True))
    assert ", " in old.read_text()[:200]
    assert read_checkpoint(old) == payload
    assert run_digests(resume_run(old)) == run_digests(expected)
