"""``repro.persist`` — deterministic checkpoint/resume for long runs.

A run interrupted at any day boundary and resumed from its checkpoint
reproduces the uninterrupted run bit for bit (including under a chaos
:class:`~repro.faults.plan.FaultPlan`) — see DESIGN.md §11 for the
on-disk format and the hidden-state inventory that makes this true.

Quick use::

    from repro.persist import Checkpointer, resume_run

    cp = Checkpointer("ckpts", every=7)
    result = run_schedule(state, days=28, on_day_end=cp.on_day_end)
    # ... later, after a crash at day 20:
    result = resume_run("ckpts")           # finishes days 21..27

CLI: ``python -m repro run --checkpoint-dir ckpts --checkpoint-every 7``
and ``python -m repro run --resume-from ckpts``.

Layering: rank 90 (it imports the ``core.sweep`` orchestrator to drive
resumed schedules); wired from ``experiments.runner`` and the CLI.
"""

from .checkpoint import (
    CHECKPOINT_GLOB,
    Checkpointer,
    LoadedCheckpoint,
    SessionEncoder,
    checkpoint_path,
    latest_checkpoint,
    latest_valid_checkpoint,
    load_checkpoint,
    resume_run,
    save_checkpoint,
)
from .codec import (
    FORMAT_NAME,
    SCHEMA_VERSION,
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
from .snapshot import (
    capture_result,
    capture_state,
    config_from_dict,
    config_to_dict,
    overlay_state,
    restore_result,
    restore_state,
)

__all__ = [
    "FORMAT_NAME",
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointCorruptError",
    "EncodedPayload",
    "canonical_json",
    "canonical_object",
    "payload_digest",
    "read_checkpoint",
    "write_checkpoint",
    "config_to_dict",
    "config_from_dict",
    "capture_state",
    "restore_state",
    "overlay_state",
    "capture_result",
    "restore_result",
    "CHECKPOINT_GLOB",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "latest_valid_checkpoint",
    "LoadedCheckpoint",
    "SessionEncoder",
    "Checkpointer",
    "resume_run",
]
