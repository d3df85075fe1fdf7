"""Checkpoint smoke: interrupt a run mid-schedule, resume, diff digests.

The CI ``checkpoint-smoke`` job runs this script and fails unless a run
interrupted right after its checkpoint landed and resumed from disk
reproduces the uninterrupted run's outputs **bit for bit** — session
records, day metrics, every latency list and (with ``--chaos``) the
fault-accounting summary.

The resumed run keeps checkpointing into the same directory, so its
later days are written by a checkpointer whose session encoding starts
from the restored result.  A second resume, from the last of those
files, must give the same digests again.

Run standalone::

    PYTHONPATH=src python benchmarks/checkpoint_smoke.py
    PYTHONPATH=src python benchmarks/checkpoint_smoke.py --chaos --days 4
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))

from helpers.golden import fault_summary_digest, run_result_digest  # noqa: E402

from repro.core import CloudFogSystem  # noqa: E402
from repro.core.config import cloudfog_advanced  # noqa: E402
from repro.faults.plan import FaultEvent, FaultPlan  # noqa: E402
from repro.persist import Checkpointer, resume_run  # noqa: E402


class _Interrupted(Exception):
    """Stands in for SIGKILL/OOM right after a checkpoint landed."""


def run_digests(result) -> tuple[str, str]:
    return run_result_digest(result), fault_summary_digest(result.faults)


def smoke_plan(days: int) -> FaultPlan:
    """One crash + one flaky throttle per middle day, plus refusals."""
    events = []
    for day in range(1, days):
        events.append(FaultEvent(day=day, subcycle=8, kind="crash", count=1))
        events.append(FaultEvent(day=day, subcycle=14, kind="flaky",
                                 severity=0.3))
    return FaultPlan(events=tuple(events), transient_refusal_prob=0.1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=3)
    parser.add_argument("--interrupt-after", type=int, default=0,
                        metavar="DAY",
                        help="kill the run after this day's checkpoint "
                             "(default 0)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--players", type=int, default=150)
    parser.add_argument("--supernodes", type=int, default=10)
    parser.add_argument("--chaos", action="store_true",
                        help="inject faults (crashes, flaky throttling, "
                             "transient refusals) during the run")
    args = parser.parse_args(argv)
    if not 0 <= args.interrupt_after < args.days - 1:
        parser.error("--interrupt-after must leave at least one day to "
                     "resume")

    config = cloudfog_advanced(
        num_players=args.players, num_supernodes=args.supernodes,
        seed=args.seed,
        fault_plan=smoke_plan(args.days) if args.chaos else None)

    expected = run_digests(CloudFogSystem(config).run(days=args.days))

    with tempfile.TemporaryDirectory(prefix="ckpt-smoke-") as tmp:
        hook = Checkpointer(pathlib.Path(tmp), every=1)

        def crashing_hook(state, day, result, total_days):
            hook.on_day_end(state, day, result, total_days)
            if day == args.interrupt_after:
                raise _Interrupted

        try:
            CloudFogSystem(config).run(days=args.days,
                                       on_day_end=crashing_hook)
        except _Interrupted:
            pass
        else:
            print("FAIL: the interruption hook never fired",
                  file=sys.stderr)
            return 1
        rewriter = Checkpointer(pathlib.Path(tmp), every=1)
        resumed = resume_run(tmp, checkpointer=rewriter)
        rewritten = rewriter.written[-1]
        again = resume_run(rewritten)

    print(f"interrupted after day {args.interrupt_after} of {args.days}"
          f" ({'chaos' if args.chaos else 'baseline'} run)")
    legs = (("uninterrupted", expected), ("resumed", run_digests(resumed)),
            (f"from {rewritten.name}", run_digests(again)))
    for label, actual in legs:
        print(f"{label + ':':<31}{actual[0][:16]}…  faults {actual[1][:16]}…")
        if actual != expected:
            print(f"FAIL: {label} diverged from the uninterrupted run",
                  file=sys.stderr)
            return 1
    print("checkpoint smoke OK (bit-identical resume, twice)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
