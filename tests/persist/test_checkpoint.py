"""Checkpoint/resume bit-identity: the headline guarantee of repro.persist.

Every RNG stream is day-scoped and the snapshot enumerates all cross-day
mutable state, so a run interrupted after *any* day and resumed from its
checkpoint must reproduce the uninterrupted run's outputs bit for bit —
including under a chaos :class:`~repro.faults.plan.FaultPlan` and
including the golden digests pinned in ``tests/faults``.
"""

import json

import pytest

from repro.core import CloudFogSystem
from repro.core.config import cloudfog_advanced
from repro.persist import (
    Checkpointer,
    CheckpointError,
    checkpoint_path,
    config_from_dict,
    config_to_dict,
    latest_checkpoint,
    latest_valid_checkpoint,
    load_checkpoint,
    read_checkpoint,
    resume_run,
    save_checkpoint,
    write_checkpoint,
)

from ..faults.regen_golden import CHAOS_PLAN, CHAOS_SCENARIOS, SCENARIOS
from ..faults.test_equivalence import GOLDEN
from ..helpers.golden import fault_summary_digest, run_result_digest

#: Small-but-busy configs: every strategy on, three days, and (for the
#: chaos variant) every fault kind plus transient refusals.
BASELINE = cloudfog_advanced(num_players=120, num_supernodes=8, seed=3)
CHAOS = BASELINE.with_(fault_plan=CHAOS_PLAN)
DAYS = 3


def run_digests(result):
    return (run_result_digest(result), fault_summary_digest(result.faults))


def test_checkpoint_hook_does_not_perturb_the_run(tmp_path):
    plain = CloudFogSystem(BASELINE).run(days=DAYS)
    hook = Checkpointer(tmp_path, every=1)
    checkpointed = CloudFogSystem(BASELINE).run(days=DAYS,
                                                on_day_end=hook.on_day_end)
    assert run_digests(checkpointed) == run_digests(plain)
    assert [p.name for p in hook.written] == [
        f"checkpoint-day{day:04d}.json" for day in range(DAYS)]


@pytest.mark.parametrize("config", [BASELINE, CHAOS],
                         ids=["baseline", "chaos"])
def test_resume_from_every_day_is_bit_identical(tmp_path, config):
    hook = Checkpointer(tmp_path, every=1)
    baseline = CloudFogSystem(config).run(days=DAYS,
                                          on_day_end=hook.on_day_end)
    expected = run_digests(baseline)
    for k in range(DAYS - 1):
        resumed = resume_run(hook.path_for(k))
        assert run_digests(resumed) == expected, \
            f"resume after day {k} diverged"


def test_resume_finished_run_returns_stored_result(tmp_path):
    hook = Checkpointer(tmp_path, every=1)
    baseline = CloudFogSystem(BASELINE).run(days=DAYS,
                                            on_day_end=hook.on_day_end)
    resumed = resume_run(hook.path_for(DAYS - 1))
    assert run_digests(resumed) == run_digests(baseline)


class _Interrupted(Exception):
    """Stands in for SIGKILL/OOM right after a checkpoint landed."""


@pytest.mark.parametrize("config", [BASELINE, CHAOS],
                         ids=["baseline", "chaos"])
def test_genuine_interruption_mid_schedule(tmp_path, config):
    """Kill the run (exception out of the day-end hook) and resume."""
    expected = run_digests(CloudFogSystem(config).run(days=DAYS))
    hook = Checkpointer(tmp_path, every=1)

    def crashing_hook(state, day, result, total_days):
        hook.on_day_end(state, day, result, total_days)
        if day == 0:
            raise _Interrupted

    with pytest.raises(_Interrupted):
        CloudFogSystem(config).run(days=DAYS, on_day_end=crashing_hook)
    assert run_digests(resume_run(tmp_path)) == expected


def test_resume_from_directory_picks_latest(tmp_path):
    hook = Checkpointer(tmp_path, every=1)
    CloudFogSystem(BASELINE).run(days=2, on_day_end=hook.on_day_end)
    assert latest_checkpoint(tmp_path) == hook.path_for(1)
    assert load_checkpoint(latest_checkpoint(tmp_path)).day == 1


def test_resume_from_empty_directory_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoints"):
        resume_run(tmp_path)


def test_latest_valid_checkpoint_skips_corrupt_snapshots(tmp_path):
    """A corrupt newest checkpoint falls back to the previous day's;
    with every snapshot corrupt nothing valid remains."""
    hook = Checkpointer(tmp_path, every=1)
    CloudFogSystem(BASELINE).run(days=DAYS, on_day_end=hook.on_day_end)
    path, payload = latest_valid_checkpoint(tmp_path)
    assert path == hook.path_for(DAYS - 1)
    assert payload["day"] == DAYS - 1
    # Truncate the newest file: its manifest digest no longer matches.
    path.write_text(path.read_text()[:-40])
    path, payload = latest_valid_checkpoint(tmp_path)
    assert path == hook.path_for(DAYS - 2)
    assert payload["day"] == DAYS - 2
    # Hand-edit the next one too (still valid JSON, wrong digest).
    path.write_text(path.read_text().replace("payload", "paiload", 1))
    path, payload = latest_valid_checkpoint(tmp_path)
    assert payload["day"] == DAYS - 3
    path.unlink()
    assert latest_valid_checkpoint(tmp_path) is None


def test_resume_refuses_a_batch_assignment_checkpoint(tmp_path):
    """A snapshot written with the removed batch-assignment mode on
    holds state only that mode produces: resuming it must fail loudly,
    naming the flag, instead of silently continuing in today's mode.
    Off, the flag described today's behaviour and the snapshot
    resumes."""
    hook = Checkpointer(tmp_path / "run", every=1)
    expected = CloudFogSystem(BASELINE).run(days=DAYS,
                                            on_day_end=hook.on_day_end)
    payload = read_checkpoint(hook.written[0])
    assert "use_batch_assignment" not in payload["state"]
    for flag in (False, True):
        payload["state"]["use_batch_assignment"] = flag
        path = write_checkpoint(tmp_path / f"{flag}.ckpt.json", payload)
        if flag:
            with pytest.raises(CheckpointError,
                               match="use_batch_assignment=True.*"
                                     "rerun from day 0"):
                resume_run(path)
        else:
            assert run_digests(resume_run(path)) == run_digests(expected)


def test_checkpoint_every_cadence(tmp_path):
    hook = Checkpointer(tmp_path, every=2)
    CloudFogSystem(BASELINE).run(days=5, on_day_end=hook.on_day_end)
    # every=2 snapshots after completed days 2 and 4 -> day indices 1, 3.
    assert [p.name for p in hook.written] == [
        "checkpoint-day0001.json", "checkpoint-day0003.json"]
    with pytest.raises(ValueError):
        Checkpointer(tmp_path, every=0)


def test_days_override_on_resume(tmp_path):
    """An explicit ``days`` equal to the stored total changes nothing;
    a different total is honoured (more days get simulated) but cannot
    promise bit-identity, because the warm-up window is derived from
    the planned total."""
    hook = Checkpointer(tmp_path, every=1)
    baseline = CloudFogSystem(BASELINE).run(days=DAYS,
                                            on_day_end=hook.on_day_end)
    same = resume_run(hook.path_for(0), days=DAYS)
    assert run_digests(same) == run_digests(baseline)
    stretched = resume_run(hook.path_for(0), days=DAYS + 2)
    assert stretched.days[-1].day > baseline.days[-1].day


def test_resume_keeps_checkpointing_when_asked(tmp_path):
    first = Checkpointer(tmp_path / "a", every=1)
    CloudFogSystem(BASELINE).run(days=DAYS, on_day_end=first.on_day_end)
    rest = Checkpointer(tmp_path / "b", every=1)
    resume_run(first.path_for(0), checkpointer=rest)
    assert [p.name for p in rest.written] == [
        f"checkpoint-day{day:04d}.json" for day in range(1, DAYS)]


# ----------------------------------------------------------------------
# golden pins: resume reproduces the exact published digests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_resume_reproduces_no_fault_goldens(tmp_path, name):
    hook = Checkpointer(tmp_path, every=1)
    full = CloudFogSystem(SCENARIOS[name]).run(days=2,
                                               on_day_end=hook.on_day_end)
    assert run_result_digest(full) == GOLDEN[name]
    resumed = resume_run(hook.path_for(0))
    assert run_result_digest(resumed) == GOLDEN[name]


def test_resume_reproduces_chaos_goldens(tmp_path):
    hook = Checkpointer(tmp_path, every=1)
    config = CHAOS_SCENARIOS["chaos_advanced"]
    full = CloudFogSystem(config).run(days=2, on_day_end=hook.on_day_end)
    assert run_result_digest(full) == GOLDEN["chaos_advanced"]
    assert fault_summary_digest(full.faults) == GOLDEN["chaos_advanced_faults"]
    resumed = resume_run(hook.path_for(0))
    assert run_result_digest(resumed) == GOLDEN["chaos_advanced"]
    assert fault_summary_digest(resumed.faults) == \
        GOLDEN["chaos_advanced_faults"]


# ----------------------------------------------------------------------
# hidden forecaster state survives the round trip
# ----------------------------------------------------------------------
def test_provisioner_hidden_state_round_trips(tmp_path):
    """Resume across the ARIMA ready boundary, live residual state."""
    config = cloudfog_advanced(num_players=80, num_supernodes=10, seed=3,
                               provisioning_window_hours=8)
    days = 10
    hook = Checkpointer(tmp_path, every=1)
    baseline = CloudFogSystem(config).run(days=days,
                                          on_day_end=hook.on_day_end)
    expected = run_result_digest(baseline)
    # Window 8 h -> period 21; the model turns ready during day 7, so
    # day 8's checkpoint must carry a live one-step forecast.
    payload = read_checkpoint(hook.path_for(8))
    arima = payload["state"]["provisioner"]
    assert arima is not None
    assert arima["last_forecast"] is not None
    assert len(arima["history"]) == len(arima["residuals"])
    for k in (0, 6, 7, 8):  # before, straddling and after readiness
        assert run_result_digest(resume_run(hook.path_for(k))) == expected, \
            f"resume after day {k} diverged"


# ----------------------------------------------------------------------
# config serialization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [BASELINE, CHAOS,
                                    SCENARIOS["cloudfog_basic"]],
                         ids=["advanced", "chaos", "basic"])
def test_config_round_trips_through_json(config):
    data = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(data) == config


def test_checkpoint_path_is_stable(tmp_path):
    assert checkpoint_path(tmp_path, 7).name == "checkpoint-day0007.json"
    assert save_checkpoint.__doc__  # exported and documented
